//! The executor: predicate trees → ASIP set operations → RID lists.

use crate::error::QueryError;
use crate::index::Table;
use crate::predicate::Predicate;
use dbx_core::multicore::run_partition_with;
use dbx_core::runner::build_processor_with;
use dbx_core::{run_sort_with, ProcModel, RunOptions, SetOpKind};
use dbx_cpu::isa::regs::{A2, A3, A4, A5};
use dbx_cpu::{emit_kernel_run, ProgramBuilder, DMEM0_BASE, SYSMEM_BASE};
use dbx_faults::{FaultCounters, FaultPlan};
use dbx_observe::{ArgValue, TrackId};

/// Result of executing a query.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    /// Matching row ids, sorted.
    pub rids: Vec<u32>,
    /// Total simulated cycles across all offloaded operations.
    pub cycles: u64,
    /// Number of set operations offloaded to the ASIP.
    pub set_ops: u64,
    /// Total elements streamed through the set operations (the paper's
    /// throughput denominator, summed over operations).
    pub elements_processed: u64,
    /// Kernel re-runs consumed by the recovery policy across all
    /// offloaded operations.
    pub retries: u32,
    /// Offloaded batches whose result came from the degraded scalar
    /// fallback kernel.
    pub degraded_ops: u64,
    /// Fault accounting (injected/corrected/detected/escaped) aggregated
    /// over all offloaded operations.
    pub faults: FaultCounters,
}

impl QueryOutput {
    fn empty() -> Self {
        QueryOutput {
            rids: Vec::new(),
            cycles: 0,
            set_ops: 0,
            elements_processed: 0,
            retries: 0,
            degraded_ops: 0,
            faults: FaultCounters::default(),
        }
    }
}

/// A sorted column projection (the `ORDER BY` output).
#[derive(Debug, Clone)]
pub struct SortedColumn {
    /// Column values of the matching rows, sorted ascending.
    pub values: Vec<u32>,
    /// Simulated cycles of the sort.
    pub cycles: u64,
    /// Sort re-runs consumed by the recovery policy.
    pub retries: u32,
    /// Whether the sort came from the degraded scalar fallback.
    pub degraded: bool,
}

/// A query engine bound to one processor configuration.
#[derive(Debug, Clone)]
pub struct QueryEngine {
    /// The processor model running the set operations.
    pub model: ProcModel,
    /// Resilience options applied to every offloaded kernel: local-memory
    /// protection override, recovery policy, per-operation watchdog. The
    /// fault plan (if any) strikes the *first* offloaded operation of a
    /// call; later operations run clean (transient-upset model).
    pub options: RunOptions,
}

impl QueryEngine {
    /// Creates an engine for a processor model with default resilience
    /// options (model-default protection, fail-fast, no watchdog).
    pub fn new(model: ProcModel) -> Self {
        QueryEngine {
            model,
            options: RunOptions::default(),
        }
    }

    /// Creates an engine with explicit resilience options.
    pub fn with_options(model: ProcModel, options: RunOptions) -> Self {
        QueryEngine { model, options }
    }

    /// Per-operation options: everything from the engine except the
    /// fault plan, which is threaded separately (first operation only).
    fn op_options(&self, plan: Option<FaultPlan>) -> RunOptions {
        RunOptions {
            fault_plan: plan,
            ..self.options.clone()
        }
    }

    fn offload(
        &self,
        kind: SetOpKind,
        a: &[u32],
        b: &[u32],
        out: &mut QueryOutput,
        plan: &mut Option<FaultPlan>,
    ) -> Result<Vec<u32>, QueryError> {
        // `run_partition_with` batches inputs larger than the local store
        // into sequential value-aligned chunks on the same core, applying
        // the recovery policy per batch.
        let opts = self.op_options(plan.take());
        let part = run_partition_with(self.model, kind, a, b, &opts)?;
        out.cycles += part.cycles;
        out.set_ops += 1;
        out.elements_processed += (a.len() + b.len()) as u64;
        out.retries += part.retries;
        out.degraded_ops += part.degraded as u64;
        out.faults.merge(&part.faults);
        if self.options.observer.is_enabled() {
            // Host-track operator span: the query plan's view of the
            // offload, clocked by the cycles the ASIP spent on it.
            let host = self.options.observer.on_track(TrackId::Host);
            host.place(kind.name(), "query", part.cycles, || {
                vec![
                    ("rows_a", ArgValue::from(a.len())),
                    ("rows_b", b.len().into()),
                    ("rows_out", part.result.len().into()),
                    ("retries", u64::from(part.retries).into()),
                ]
            });
        }
        Ok(part.result)
    }

    /// Merges posting lists of a key range into one sorted RID list with
    /// a balanced tree of ASIP unions (posting lists of different keys
    /// interleave arbitrarily in RID space).
    fn merge_postings(
        &self,
        lists: Vec<&[u32]>,
        out: &mut QueryOutput,
        plan: &mut Option<FaultPlan>,
    ) -> Result<Vec<u32>, QueryError> {
        let mut level: Vec<Vec<u32>> = lists.into_iter().map(<[u32]>::to_vec).collect();
        if level.is_empty() {
            return Ok(Vec::new());
        }
        while level.len() > 1 {
            // An odd trailing list passes through to the next level.
            let carry = if level.len() % 2 == 1 {
                level.pop()
            } else {
                None
            };
            let mut next = Vec::with_capacity(level.len() / 2 + 1);
            for pair in level.chunks_exact(2) {
                next.push(self.offload(SetOpKind::Union, &pair[0], &pair[1], out, plan)?);
            }
            next.extend(carry);
            level = next;
        }
        Ok(level.pop().unwrap())
    }

    fn eval(
        &self,
        table: &Table,
        pred: &Predicate,
        out: &mut QueryOutput,
        plan: &mut Option<FaultPlan>,
    ) -> Result<Vec<u32>, QueryError> {
        match pred {
            Predicate::Eq { column, value } => {
                let ix = table.index(column).ok_or_else(|| QueryError::NoIndex {
                    column: column.clone(),
                })?;
                Ok(ix.lookup(*value).to_vec())
            }
            Predicate::Range { column, lo, hi } => {
                let ix = table.index(column).ok_or_else(|| QueryError::NoIndex {
                    column: column.clone(),
                })?;
                self.merge_postings(ix.range(*lo, *hi), out, plan)
            }
            Predicate::And(a, b) => {
                let ra = self.eval(table, a, out, plan)?;
                let rb = self.eval(table, b, out, plan)?;
                self.offload(SetOpKind::Intersect, &ra, &rb, out, plan)
            }
            Predicate::Or(a, b) => {
                let ra = self.eval(table, a, out, plan)?;
                let rb = self.eval(table, b, out, plan)?;
                self.offload(SetOpKind::Union, &ra, &rb, out, plan)
            }
            Predicate::AndNot(a, b) => {
                let ra = self.eval(table, a, out, plan)?;
                let rb = self.eval(table, b, out, plan)?;
                self.offload(SetOpKind::Difference, &ra, &rb, out, plan)
            }
        }
    }

    /// Projects `column` at `rids` with bounds checking.
    fn project(&self, table: &Table, rids: &[u32], column: &str) -> Result<Vec<u32>, QueryError> {
        let col = table.column(column).ok_or_else(|| QueryError::NoColumn {
            column: column.to_string(),
        })?;
        rids.iter()
            .map(|&r| {
                col.get(r as usize)
                    .copied()
                    .ok_or(QueryError::RidOutOfRange {
                        rid: r,
                        n_rows: table.n_rows,
                    })
            })
            .collect()
    }

    /// Executes a predicate tree and returns the matching RIDs with the
    /// simulated cost and resilience accounting.
    pub fn execute(&self, table: &Table, pred: &Predicate) -> Result<QueryOutput, QueryError> {
        self.execute_tagged(table, pred, None)
    }

    /// [`Self::execute`] with a propagated query id: when the serving
    /// layer hands one down, the root `query` span carries it as a `qid`
    /// arg, so every span of a request joins back to its
    /// [`dbx_observe::telemetry::RequestRecord`].
    pub fn execute_tagged(
        &self,
        table: &Table,
        pred: &Predicate,
        qid: Option<u64>,
    ) -> Result<QueryOutput, QueryError> {
        let mut out = QueryOutput::empty();
        let mut plan = self.options.fault_plan.clone();
        let host = self.options.observer.on_track(TrackId::Host);
        let base = host.clock();
        out.rids = self.eval(table, pred, &mut out, &mut plan)?;
        if host.is_enabled() {
            // Root span over the whole predicate tree. The per-operator
            // `place` calls above advanced the host clock by exactly
            // `out.cycles`, so this overlay tiles them without moving it.
            host.span_at("query", "query", base, out.cycles, || {
                let mut args = vec![
                    ("set_ops", ArgValue::from(out.set_ops)),
                    ("rows_out", out.rids.len().into()),
                    ("elements", out.elements_processed.into()),
                    ("retries", u64::from(out.retries).into()),
                ];
                if let Some(q) = qid {
                    args.push(("qid", q.into()));
                }
                args
            });
        }
        Ok(out)
    }

    /// `SUM(column)` over a RID list, computed *on the ASIP*: the
    /// projected values are staged into the core's data memory and a
    /// hardware-loop reduction program runs over them. Returns the 32-bit
    /// wrapping sum and the simulated cycles.
    ///
    /// The engine's protection override applies (a protected local store
    /// charges its read surcharge here too); the fault plan and recovery
    /// policy do not — the reduction is a single short pass and fails fast.
    pub fn sum(&self, table: &Table, rids: &[u32], column: &str) -> Result<(u32, u64), QueryError> {
        let projected = self.project(table, rids, column)?;
        if projected.is_empty() {
            return Ok((0, 0));
        }
        let mut p = build_processor_with(self.model, self.options.protection)?;
        let base = if self.model == ProcModel::Mini108 {
            SYSMEM_BASE
        } else {
            DMEM0_BASE
        };
        let cap = match self.model {
            ProcModel::Mini108 => usize::MAX,
            ProcModel::Dba2Lsu | ProcModel::Dba2LsuEis { .. } => 32 * 1024 / 4,
            _ => 64 * 1024 / 4,
        };
        if projected.len() > cap {
            return Err(QueryError::ProjectionTooLarge {
                elements: projected.len(),
                cap,
            });
        }
        // a2 = sum, a3 = ptr, a4 = count, a5 = value.
        let mut b = ProgramBuilder::new();
        b.movi(A2, 0);
        b.movi(A3, base as i32);
        b.movi(A4, projected.len() as i32);
        b.hw_loop(A4, "done");
        b.l32i(A5, A3, 0);
        b.add(A2, A2, A5);
        b.addi(A3, A3, 4);
        b.label("done");
        b.halt();
        p.load_program(b.build()?)?;
        p.mem.poke_words(base, &projected)?;
        let obs = &self.options.observer;
        if obs.is_enabled() {
            p.enable_profiling();
        }
        let stats = p.run(1_000_000_000)?;
        if obs.is_enabled() {
            let snap = p
                .profile()
                .zip(p.program())
                .map(|(pr, prog)| pr.snapshot(prog));
            emit_kernel_run(
                obs,
                "sum",
                &stats,
                snap.as_ref(),
                &[
                    ("model", ArgValue::from(self.model.name())),
                    ("elements", projected.len().into()),
                ],
            );
        }
        Ok((p.ar[2], stats.cycles))
    }

    /// `ORDER BY column` over a RID list: projects the column and sorts
    /// it with the ASIP's merge-sort kernel under the engine's recovery
    /// policy.
    pub fn order_by(
        &self,
        table: &Table,
        rids: &[u32],
        column: &str,
    ) -> Result<SortedColumn, QueryError> {
        let projected = self.project(table, rids, column)?;
        let opts = self.op_options(self.options.fault_plan.clone());
        let r = run_sort_with(self.model, &projected, &opts)?;
        Ok(SortedColumn {
            values: r.result,
            cycles: r.cycles,
            retries: r.retries,
            degraded: r.degraded,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbx_core::RecoveryPolicy;
    use dbx_faults::{FaultTarget, ProtectionKind};

    fn demo_table(rows: u32) -> Table {
        let color: Vec<u32> = (0..rows).map(|i| i % 5).collect();
        let size: Vec<u32> = (0..rows).map(|i| (i * 7) % 40).collect();
        let region: Vec<u32> = (0..rows).map(|i| (i / 16) % 8).collect();
        Table::build(
            "demo",
            &[("color", color), ("size", size), ("region", region)],
        )
    }

    /// Reference evaluation by scanning all rows.
    fn scan(table: &Table, pred: &Predicate) -> Vec<u32> {
        (0..table.n_rows)
            .filter(|&rid| pred.matches(&|c: &str| table.column(c).expect("column")[rid as usize]))
            .collect()
    }

    #[test]
    fn eq_and_intersection() {
        let t = demo_table(500);
        let engine = QueryEngine::new(ProcModel::Dba2LsuEis { partial: true });
        let pred = Predicate::eq("color", 2).and(Predicate::eq("region", 3));
        let out = engine.execute(&t, &pred).unwrap();
        assert_eq!(out.rids, scan(&t, &pred));
        assert_eq!(out.set_ops, 1);
        assert!(out.cycles > 0);
        assert_eq!(out.retries, 0);
        assert_eq!(out.degraded_ops, 0);
        assert!(out.faults.is_zero());
    }

    #[test]
    fn range_merges_posting_lists() {
        let t = demo_table(800);
        let engine = QueryEngine::new(ProcModel::Dba2LsuEis { partial: true });
        let pred = Predicate::between("size", 10, 25);
        let out = engine.execute(&t, &pred).unwrap();
        assert_eq!(out.rids, scan(&t, &pred));
        assert!(out.set_ops >= 1, "a multi-key range needs unions");
        // The output must be sorted and duplicate-free.
        assert!(out.rids.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn complex_tree_with_all_operators() {
        let t = demo_table(1000);
        let engine = QueryEngine::new(ProcModel::Dba1LsuEis { partial: true });
        let pred = Predicate::eq("color", 1)
            .or(Predicate::eq("color", 3))
            .and(Predicate::between("size", 5, 30))
            .and_not(Predicate::eq("region", 0));
        let out = engine.execute(&t, &pred).unwrap();
        assert_eq!(out.rids, scan(&t, &pred));
    }

    #[test]
    fn every_model_computes_the_same_answer_with_different_cost() {
        let t = demo_table(600);
        let pred = Predicate::eq("color", 0).or(Predicate::between("size", 0, 12));
        let reference = scan(&t, &pred);
        let mut costs = Vec::new();
        for model in ProcModel::all() {
            let out = QueryEngine::new(model).execute(&t, &pred).unwrap();
            assert_eq!(out.rids, reference, "{}", model.name());
            costs.push(out.cycles);
        }
        // The scalar baseline must be slower than the full EIS config.
        assert!(
            costs[0] > 3 * costs[5],
            "108Mini {} vs 2LSU_EIS {}",
            costs[0],
            costs[5]
        );
    }

    #[test]
    fn order_by_sorts_the_projection() {
        let t = demo_table(400);
        let engine = QueryEngine::new(ProcModel::Dba2LsuEis { partial: true });
        let out = engine.execute(&t, &Predicate::eq("color", 4)).unwrap();
        let sorted = engine.order_by(&t, &out.rids, "size").unwrap();
        let mut expect: Vec<u32> = out
            .rids
            .iter()
            .map(|&r| t.column("size").unwrap()[r as usize])
            .collect();
        expect.sort_unstable();
        assert_eq!(sorted.values, expect);
        assert!(sorted.cycles > 0);
        assert!(!sorted.degraded);
    }

    #[test]
    fn sum_aggregation_runs_on_the_asip() {
        let t = demo_table(500);
        let engine = QueryEngine::new(ProcModel::Dba1LsuEis { partial: true });
        let out = engine.execute(&t, &Predicate::eq("color", 3)).unwrap();
        let (sum, cycles) = engine.sum(&t, &out.rids, "size").unwrap();
        let expect: u32 = out
            .rids
            .iter()
            .map(|&r| t.column("size").unwrap()[r as usize])
            .fold(0u32, |a, b| a.wrapping_add(b));
        assert_eq!(sum, expect);
        // Hardware loop: ~3 cycles per element plus setup.
        assert!(
            cycles < 5 * out.rids.len() as u64 + 50,
            "sum took {cycles} cycles"
        );
        let (zero, c0) = engine.sum(&t, &[], "size").unwrap();
        assert_eq!((zero, c0), (0, 0));
    }

    #[test]
    fn missing_index_is_reported() {
        let t = demo_table(10);
        let engine = QueryEngine::new(ProcModel::Dba1Lsu);
        let e = engine.execute(&t, &Predicate::eq("nope", 1)).unwrap_err();
        assert_eq!(
            e,
            QueryError::NoIndex {
                column: "nope".to_string()
            }
        );
    }

    #[test]
    fn missing_column_and_bad_rid_are_typed() {
        let t = demo_table(10);
        let engine = QueryEngine::new(ProcModel::Dba1LsuEis { partial: true });
        let e = engine.sum(&t, &[0], "nope").unwrap_err();
        assert_eq!(
            e,
            QueryError::NoColumn {
                column: "nope".to_string()
            }
        );
        let e = engine.order_by(&t, &[3, 99], "size").unwrap_err();
        assert_eq!(
            e,
            QueryError::RidOutOfRange {
                rid: 99,
                n_rows: 10
            }
        );
    }

    #[test]
    fn empty_results_flow_through() {
        let t = demo_table(100);
        let engine = QueryEngine::new(ProcModel::Dba2LsuEis { partial: false });
        let pred = Predicate::eq("color", 99).and(Predicate::eq("size", 0));
        let out = engine.execute(&t, &pred).unwrap();
        assert!(out.rids.is_empty());
        let sorted = engine.order_by(&t, &out.rids, "size").unwrap();
        assert!(sorted.values.is_empty());
    }

    #[test]
    fn query_retries_through_a_parity_upset() {
        let t = demo_table(500);
        let model = ProcModel::Dba2LsuEis { partial: true };
        let pred = Predicate::eq("color", 2).and(Predicate::eq("region", 3));
        let clean = QueryEngine::new(model).execute(&t, &pred).unwrap();
        // Flip a bit in the first operation's A input before the kernel
        // reads it; parity detects, the policy re-runs the kernel.
        let plan = FaultPlan::new().with_bit_flip(FaultTarget::Dmem(0), 0, 17, 5);
        let engine = QueryEngine::with_options(
            model,
            RunOptions {
                protection: Some(ProtectionKind::Parity),
                fault_plan: Some(plan),
                policy: RecoveryPolicy::Retry { max_retries: 2 },
                watchdog: None,
                ..Default::default()
            },
        );
        let out = engine.execute(&t, &pred).unwrap();
        assert_eq!(
            out.rids, clean.rids,
            "retry must reproduce the clean result"
        );
        assert!(out.retries >= 1, "the upset must have cost a retry");
        assert_eq!(out.degraded_ops, 0);
        assert!(out.faults.detected >= 1);
        assert_eq!(out.faults.escaped, 0);
    }

    #[test]
    fn hung_query_ops_degrade_to_scalar() {
        let t = demo_table(300);
        let model = ProcModel::Dba1LsuEis { partial: true };
        let pred = Predicate::eq("color", 1).and(Predicate::eq("region", 2));
        let clean = QueryEngine::new(model).execute(&t, &pred).unwrap();
        // A 10-cycle watchdog trips on every accelerated attempt; the
        // policy falls back to the scalar kernel, which runs unwatched.
        let engine = QueryEngine::with_options(
            model,
            RunOptions {
                protection: None,
                fault_plan: None,
                policy: RecoveryPolicy::DegradeToScalar { max_retries: 0 },
                watchdog: Some(10),
                ..Default::default()
            },
        );
        let out = engine.execute(&t, &pred).unwrap();
        assert_eq!(out.rids, clean.rids);
        assert!(out.degraded_ops >= 1, "degradation must be recorded");
    }
}
