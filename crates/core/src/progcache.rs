//! Process-wide memoization of assembled kernel programs.
//!
//! A set-op kernel depends on the data layout only through the five
//! stream addresses of its prologue, so it is assembled once per
//! (processor model, operation) as a `SetOpTemplate` and patched per
//! call. A sort kernel's pass count depends on the element count, so it
//! is memoized per (model, layout). Bench sweeps and the runner's retry
//! loop would otherwise re-assemble the identical kernel for every point
//! or attempt; the cache hands out shared handles instead, and sort
//! programs go to the simulator's shared-program loader
//! ([`dbx_cpu::Processor::load_program_shared`]) without a copy.
//!
//! Each cache is a plain mutex-guarded map: kernel assembly happens well
//! off the per-cycle path, and holding the lock across a miss means two
//! host threads racing on the same key assemble it once.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use dbx_cpu::program::Program;
use dbx_cpu::SimError;

use crate::configs::ProcModel;
use crate::datapath::SetOpKind;
use crate::kernels::{SetOpTemplate, SortLayout};

/// Memoization key: everything a kernel's assembly depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum ProgKey {
    /// A sorted-set operation kernel template.
    SetOp {
        /// Processor model the template was assembled for.
        model: ProcModel,
        /// The set operation.
        kind: SetOpKind,
    },
    /// A merge-sort kernel.
    Sort {
        /// Processor model (already lowered to its 1-LSU sort form).
        model: ProcModel,
        /// Ping-pong buffer placement; the pass count depends on `n`.
        layout: SortLayout,
    },
}

/// A memoized sort kernel: the program and whether the sorted data ends
/// in the scratch buffer (odd number of merge passes).
pub(crate) type SortProgram = (Arc<Program>, bool);

/// Capacity bound of each cache. On overflow the map is cleared outright
/// — a deterministic policy that keeps the steady state simple. Only the
/// sort cache can reach it: set-op templates number at most models ×
/// operations.
const CACHE_CAP: usize = 256;

type Cache<V> = OnceLock<Mutex<HashMap<ProgKey, V>>>;

static SET_OPS: Cache<Arc<SetOpTemplate>> = OnceLock::new();
static SORTS: Cache<SortProgram> = OnceLock::new();

static ASSEMBLIES: AtomicU64 = AtomicU64::new(0);

/// Number of kernels actually assembled (cache misses) since process
/// start. Monotone; regression tests assert on deltas of this to prove a
/// run (including its retries) assembles each kernel at most once.
pub fn assemblies() -> u64 {
    ASSEMBLIES.load(Ordering::Relaxed)
}

#[cfg(test)]
fn assembly_counts() -> &'static Mutex<HashMap<ProgKey, u64>> {
    static COUNTS: OnceLock<Mutex<HashMap<ProgKey, u64>>> = OnceLock::new();
    COUNTS.get_or_init(|| Mutex::new(HashMap::new()))
}

/// How often `key` has been assembled since process start. Unlike
/// [`assemblies`], this is immune to unrelated kernels assembled by
/// concurrently running tests, and it survives capacity clears of the
/// cache itself.
#[cfg(test)]
pub(crate) fn assemblies_for(key: &ProgKey) -> u64 {
    assembly_counts()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .get(key)
        .copied()
        .unwrap_or(0)
}

/// The set-op template for (`model`, `kind`), assembled with `build` on a
/// miss.
pub(crate) fn set_op_template(
    model: ProcModel,
    kind: SetOpKind,
    build: impl FnOnce() -> Result<SetOpTemplate, SimError>,
) -> Result<Arc<SetOpTemplate>, SimError> {
    get_or_assemble(&SET_OPS, ProgKey::SetOp { model, kind }, || {
        build().map(Arc::new)
    })
}

/// The sort kernel for (`model`, `layout`), assembled with `build` on a
/// miss.
pub(crate) fn sort_program(
    model: ProcModel,
    layout: SortLayout,
    build: impl FnOnce() -> Result<(Program, bool), SimError>,
) -> Result<SortProgram, SimError> {
    get_or_assemble(&SORTS, ProgKey::Sort { model, layout }, || {
        build().map(|(program, in_dst)| (Arc::new(program), in_dst))
    })
}

/// Looks up `key`, assembling with `build` on a miss. Errors from `build`
/// (bad layouts, bad unroll factors) are never cached, so every caller
/// sees them.
fn get_or_assemble<V: Clone>(
    cache: &Cache<V>,
    key: ProgKey,
    build: impl FnOnce() -> Result<V, SimError>,
) -> Result<V, SimError> {
    let mut map = cache
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    if let Some(hit) = map.get(&key) {
        return Ok(hit.clone());
    }
    let built = build()?;
    ASSEMBLIES.fetch_add(1, Ordering::Relaxed);
    #[cfg(test)]
    {
        *assembly_counts()
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entry(key)
            .or_insert(0) += 1;
    }
    if map.len() >= CACHE_CAP {
        map.clear();
    }
    map.insert(key, built.clone());
    Ok(built)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout(n: u32) -> SortLayout {
        SortLayout {
            src: 0x1000,
            dst: 0x2000,
            n,
        }
    }

    fn dummy() -> (Program, bool) {
        let mut b = dbx_cpu::program::ProgramBuilder::new();
        b.halt();
        (b.build().unwrap(), false)
    }

    #[test]
    fn hit_does_not_reassemble() {
        let l = layout(u32::MAX); // distinct from any real layout
        let key = ProgKey::Sort {
            model: ProcModel::Dba1Lsu,
            layout: l,
        };
        sort_program(ProcModel::Dba1Lsu, l, || Ok(dummy())).unwrap();
        sort_program(ProcModel::Dba1Lsu, l, || {
            panic!("cache hit must not rebuild")
        })
        .unwrap();
        assert_eq!(assemblies_for(&key), 1);
    }

    #[test]
    fn build_errors_are_not_cached() {
        let l = layout(u32::MAX - 1);
        let r = sort_program(ProcModel::Dba1Lsu, l, || {
            Err(SimError::BadProgram("nope".into()))
        });
        assert!(r.is_err());
        // The next attempt still runs the builder.
        sort_program(ProcModel::Dba1Lsu, l, || Ok(dummy())).unwrap();
    }
}
