//! Shared pre-computed view of a program: instruction index, control-flow
//! graph (including zero-overhead loop back-edges), hardware-loop regions,
//! reachability, and per-instruction architectural effects.

use std::collections::{BTreeSet, HashMap};

use dbx_cpu::ext::Extension;
use dbx_cpu::isa::{ExtOp, Instr};
use dbx_cpu::program::Program;

/// One hardware-loop region: the `Loop` instruction at `header` runs the
/// body `[begin_pc, end_pc)` `a[s]` times.
#[derive(Debug, Clone)]
pub struct LoopRegion {
    /// Index of the `Instr::Loop` header.
    pub header: usize,
    /// Address of the first body instruction.
    pub begin_pc: u32,
    /// Address of the first instruction after the body (the back-edge pc).
    pub end_pc: u32,
    /// False when the region itself is malformed; such regions are
    /// excluded from in/out-branch checking to avoid cascading noise.
    pub well_formed: bool,
}

impl LoopRegion {
    /// Whether `pc` addresses an instruction inside the loop body.
    pub fn contains(&self, pc: u32) -> bool {
        (self.begin_pc..self.end_pc).contains(&pc)
    }
}

/// Architectural read/write sets of one instruction (a FLIX bundle is the
/// union of its slots — read-old/write-new makes that exact).
#[derive(Debug, Clone, Copy, Default)]
pub struct Effects {
    /// Bitmask of address registers read.
    pub reg_uses: u16,
    /// Bitmask of address registers written.
    pub reg_defs: u16,
    /// Subset of `reg_defs` written by *pure* operations — ones whose only
    /// architectural effect is the register write (ALU, `Movi`, `Load`,
    /// extension ops with no state writes or LSU use). Only these are
    /// candidates for dead-write reporting: an unread done-flag from a
    /// fused store op is idiomatic in unrolled kernels, not dead code.
    pub reg_defs_pure: u16,
    /// Bitmask (over [`View::states`]) of extension states read.
    pub state_uses: u64,
    /// Bitmask of extension states written.
    pub state_defs: u64,
    /// Subset of `state_defs` written by *pure parameter stores* — WUR-class
    /// ops whose only architectural effect is writing that one state (no
    /// state reads, no AR write, no LSU). Only these are candidates for
    /// dead-state-write reporting: a fused stream op leaving its window
    /// state unread on the last iteration is idiomatic, not dead code.
    pub state_defs_pure: u64,
}

/// The analyzed program plus everything the individual passes share.
pub struct View<'p> {
    /// The program under analysis.
    pub prog: &'p Program,
    /// Instruction addresses, in stream order.
    pub addrs: Vec<u32>,
    /// The instructions, parallel to `addrs`.
    pub instrs: Vec<&'p Instr>,
    /// Address → stream index.
    pub index_of: HashMap<u32, usize>,
    /// First address past the program.
    pub end_pc: u32,
    /// Hardware-loop regions in stream order.
    pub loops: Vec<LoopRegion>,
    /// CFG successor indices per instruction.
    pub succs: Vec<Vec<usize>>,
    /// CFG predecessor indices per instruction.
    pub preds: Vec<Vec<usize>>,
    /// Nodes where control leaves the analyzable region (Halt, Ret, Jx,
    /// or a fall-through off the end) — everything is live there.
    pub exit_all_live: Vec<bool>,
    /// Reachable-from-entry flags.
    pub reachable: Vec<bool>,
    /// Per-instruction effects.
    pub effects: Vec<Effects>,
    /// Extension state name table (bit index = position).
    pub states: Vec<&'static str>,
}

impl<'p> View<'p> {
    /// Builds the view. `ext` provides op descriptors for effect and
    /// hazard computation; without it extension ops have empty effects
    /// (the bundle pass reports the missing extension separately).
    pub fn build(prog: &'p Program, ext: Option<&dyn Extension>) -> Self {
        let mut addrs = Vec::new();
        let mut instrs = Vec::new();
        let mut index_of = HashMap::new();
        for (addr, i) in prog.iter() {
            index_of.insert(addr, addrs.len());
            addrs.push(addr);
            instrs.push(i);
        }
        let end_pc = prog.entry() + prog.size_bytes();
        let n = instrs.len();

        // Hardware-loop regions.
        let mut loops = Vec::new();
        for (ix, i) in instrs.iter().enumerate() {
            if let Instr::Loop { end, .. } = i {
                loops.push(LoopRegion {
                    header: ix,
                    begin_pc: addrs[ix] + i.size(),
                    end_pc: *end,
                    well_formed: true,
                });
            }
        }
        // A region is only usable for in/out checks when its body is a
        // non-empty aligned range; the CFG pass diagnoses the rest.
        for l in &mut loops {
            let end_ok = l.end_pc == end_pc || index_of.contains_key(&l.end_pc);
            l.well_formed = l.end_pc > l.begin_pc && end_ok;
        }

        // Successor pcs, then hardware-loop back-edge rewriting, then
        // index mapping.
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut exit_all_live = vec![false; n];
        for ix in 0..n {
            let fall = addrs[ix] + instrs[ix].size();
            let mut pcs: Vec<u32> = match *instrs[ix] {
                Instr::Branch { target, .. }
                | Instr::Beqz { target, .. }
                | Instr::Bnez { target, .. } => vec![fall, target],
                Instr::J { target } => vec![target],
                // Assume calls return: fall-through stays reachable.
                Instr::Call0 { target } => vec![target, fall],
                Instr::Jx { .. } | Instr::Ret | Instr::Halt => {
                    exit_all_live[ix] = true;
                    vec![]
                }
                _ => vec![fall],
            };
            // Inside a well-formed loop body, reaching `end_pc` takes the
            // back-edge (until the count runs out, then falls through), so
            // such edges target both the body start and the end.
            let here = addrs[ix];
            if let Some(l) = loops
                .iter()
                .find(|l| l.well_formed && l.contains(here))
                .cloned()
            {
                let mut rewritten = Vec::new();
                for pc in pcs {
                    if pc == l.end_pc {
                        rewritten.push(l.begin_pc);
                    }
                    rewritten.push(pc);
                }
                pcs = rewritten;
            }
            for pc in pcs {
                match index_of.get(&pc) {
                    Some(&s) => {
                        if !succs[ix].contains(&s) {
                            succs[ix].push(s);
                        }
                    }
                    // Falling (or branching) off the end of the program:
                    // nothing more to analyze on that path.
                    None => exit_all_live[ix] = true,
                }
            }
        }
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (ix, ss) in succs.iter().enumerate() {
            for &s in ss {
                if !preds[s].contains(&ix) {
                    preds[s].push(ix);
                }
            }
        }

        // Reachability from the entry point.
        let mut reachable = vec![false; n];
        if let Some(&entry) = index_of.get(&prog.entry()) {
            let mut stack = vec![entry];
            while let Some(ix) = stack.pop() {
                if std::mem::replace(&mut reachable[ix], true) {
                    continue;
                }
                stack.extend(succs[ix].iter().copied());
            }
        }

        // State name table from the extension's descriptors.
        let mut names: BTreeSet<&'static str> = BTreeSet::new();
        if let Some(e) = ext {
            for op in 0..e.op_count() {
                if let Ok(d) = e.op_descriptor(op) {
                    names.extend(d.states_written);
                    names.extend(d.states_read);
                }
            }
        }
        // The u64 bitmask caps tracked states at 64; real extensions here
        // have ~15. Anything beyond is dropped from state dataflow only.
        let states: Vec<&'static str> = names.into_iter().take(64).collect();

        let effects = instrs.iter().map(|i| effects_of(i, ext, &states)).collect();

        View {
            prog,
            addrs,
            instrs,
            index_of,
            end_pc,
            loops,
            succs,
            preds,
            exit_all_live,
            reachable,
            effects,
            states,
        }
    }

    /// The innermost (only — loops cannot nest) well-formed loop whose
    /// body contains `pc`.
    pub fn enclosing_loop(&self, pc: u32) -> Option<&LoopRegion> {
        self.loops.iter().find(|l| l.well_formed && l.contains(pc))
    }
}

pub(crate) fn effects_of(
    i: &Instr,
    ext: Option<&dyn Extension>,
    states: &[&'static str],
) -> Effects {
    let bit = |names: &[&str]| -> u64 {
        names
            .iter()
            .filter_map(|n| states.iter().position(|s| s == n))
            .fold(0u64, |m, p| m | (1 << p))
    };
    match i {
        Instr::Ext(ExtOp { op, args }) => {
            let mut e = Effects::default();
            if let Some(d) = ext.and_then(|x| x.op_descriptor(*op).ok()) {
                if d.reads_ar {
                    e.reg_uses |= 1 << (args.s & 15);
                }
                if d.writes_ar {
                    e.reg_defs |= 1 << (args.r & 15);
                    if d.states_written.is_empty() && matches!(d.lsu, dbx_cpu::ext::LsuUse::None) {
                        e.reg_defs_pure |= 1 << (args.r & 15);
                    }
                }
                e.state_uses = bit(d.states_read);
                e.state_defs = bit(d.states_written);
                if d.states_written.len() == 1
                    && d.states_read.is_empty()
                    && !d.writes_ar
                    && matches!(d.lsu, dbx_cpu::ext::LsuUse::None)
                {
                    e.state_defs_pure = e.state_defs;
                }
            }
            e
        }
        Instr::Flix(slots) => {
            // Read-old/write-new: the bundle's reads all observe the
            // pre-cycle state, so a plain union is the exact semantics.
            let mut e = Effects::default();
            for s in slots.iter() {
                let se = effects_of(s, ext, states);
                e.reg_uses |= se.reg_uses;
                e.reg_defs |= se.reg_defs;
                e.reg_defs_pure |= se.reg_defs_pure;
                e.state_uses |= se.state_uses;
                e.state_defs |= se.state_defs;
                e.state_defs_pure |= se.state_defs_pure;
            }
            // A slot reading a state another slot purely wrote still means
            // the bundle as a whole consumes it — keep pure bits only for
            // states no slot reads.
            e.state_defs_pure &= !e.state_uses;
            e
        }
        _ => {
            let mut e = Effects::default();
            for r in i.src_regs() {
                e.reg_uses |= 1 << r.0;
            }
            if let Some(r) = i.dest_reg() {
                e.reg_defs |= 1 << r.0;
                e.reg_defs_pure |= 1 << r.0;
            }
            e
        }
    }
}
