//! Property tests of the query executor: arbitrary tables and predicate
//! trees must produce exactly the RIDs a full table scan produces, on
//! every processor model — and through the durable service, across
//! arbitrary create/append/drop/recreate sequences.

use dbasip::dbisa::ProcModel;
use dbasip::query::{
    Arrival, Predicate, QueryEngine, QueryService, Reply, Request, ServiceConfig, Table,
};
use dbasip::storage::{Columns, MemDisk};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A random three-column table of up to 400 rows with small domains so
/// predicates actually select something.
fn table_strategy() -> impl Strategy<Value = Table> {
    (20usize..400).prop_flat_map(|rows| {
        (
            proptest::collection::vec(0u32..6, rows),
            proptest::collection::vec(0u32..40, rows),
            proptest::collection::vec(0u32..4, rows),
        )
            .prop_map(|(c0, c1, c2)| {
                Table::build("t", &[("color", c0), ("size", c1), ("region", c2)])
            })
    })
}

/// Random predicate trees up to depth 3 over the three columns.
fn predicate_strategy() -> impl Strategy<Value = Predicate> {
    let leaf = prop_oneof![
        (0u32..6).prop_map(|v| Predicate::eq("color", v)),
        (0u32..40, 0u32..20).prop_map(|(lo, d)| Predicate::between("size", lo, lo + d)),
        (0u32..4).prop_map(|v| Predicate::eq("region", v)),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            (inner.clone(), inner).prop_map(|(a, b)| a.and_not(b)),
        ]
    })
}

fn scan(table: &Table, pred: &Predicate) -> Vec<u32> {
    (0..table.n_rows)
        .filter(|&rid| pred.matches(&|c: &str| table.column(c).expect("column")[rid as usize]))
        .collect()
}

/// One step of a service session: an operation selector, a table, a row
/// count, a seed for the row values and the predicate, and whether the
/// batch submitted to the service ends after this step.
type Step = (u8, usize, usize, u32, bool);

fn session_strategy() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        (0u8..10, 0usize..2, 1usize..24, any::<u32>(), any::<bool>()),
        8..40,
    )
}

/// `rows` rows of a two-column table, drawn from `seed`.
fn rows(n: usize, seed: u32) -> Columns {
    let mut x = seed | 1;
    let mut next = |m: u32| {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        x % m
    };
    let (color, size): (Vec<u32>, Vec<u32>) = (0..n).map(|_| (next(4), next(16))).unzip();
    vec![("color".into(), color), ("size".into(), size)]
}

/// A predicate over the two columns, drawn from `seed`.
fn predicate(seed: u32) -> Predicate {
    let eq = Predicate::eq("color", seed % 4);
    let lo = (seed >> 2) % 16;
    let range = Predicate::between("size", lo, lo + (seed >> 6) % 8);
    match (seed >> 9) % 3 {
        0 => eq.and(range),
        1 => eq.or(range),
        _ => range.and_not(eq),
    }
}

/// The rows of `cols` that `pred` matches: the row-mirror oracle.
fn mirror_scan(cols: &Columns, pred: &Predicate) -> Vec<u32> {
    let n = cols[0].1.len() as u32;
    (0..n)
        .filter(|&rid| {
            pred.matches(&|c: &str| {
                let (_, values) = cols.iter().find(|(name, _)| name == c).expect("column");
                values[rid as usize]
            })
        })
        .collect()
}

/// Submits one batch and checks every reply against the answer planned
/// from the row mirror; committed generations must strictly increase.
fn run_batch(
    svc: &mut QueryService<MemDisk>,
    batch: &mut Vec<(Request, Option<Vec<u32>>)>,
    last_gen: &mut u64,
) -> Result<(), TestCaseError> {
    let arrivals: Vec<Arrival> = (0u64..)
        .zip(batch.iter())
        .map(|(at, (request, _))| Arrival::new(at, request.clone()))
        .collect();
    let report = svc.run(&arrivals);
    for (c, (request, expect)) in report.completions.iter().zip(batch.drain(..)) {
        match (&c.result, expect) {
            (Ok(Reply::Rids(rids)), Some(expect)) => {
                prop_assert_eq!(rids, &expect, "{:?}", request)
            }
            (Ok(Reply::Committed(gen)), None) if c.kind != "query" => {
                prop_assert!(*gen > *last_gen, "generation {} after {}", gen, last_gen);
                *last_gen = *gen;
            }
            (Err(_), None) if c.kind == "query" => {}
            (other, expect) => {
                prop_assert!(false, "{:?}: {:?}, expected {:?}", request, other, expect)
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn executor_equals_full_scan(table in table_strategy(), pred in predicate_strategy()) {
        let expect = scan(&table, &pred);
        for model in [
            ProcModel::Mini108,
            ProcModel::Dba1LsuEis { partial: true },
            ProcModel::Dba2LsuEis { partial: false },
        ] {
            let out = QueryEngine::new(model).execute(&table, &pred).unwrap();
            prop_assert_eq!(&out.rids, &expect, "{} {:?}", model.name(), pred);
        }
    }

    #[test]
    fn order_by_and_sum_are_consistent(table in table_strategy(), pred in predicate_strategy()) {
        let engine = QueryEngine::new(ProcModel::Dba2LsuEis { partial: true });
        let out = engine.execute(&table, &pred).unwrap();
        let sorted = engine.order_by(&table, &out.rids, "size").unwrap();
        prop_assert!(sorted.values.windows(2).all(|w| w[0] <= w[1]));
        prop_assert_eq!(sorted.values.len(), out.rids.len());
        let (sum, _) = engine.sum(&table, &out.rids, "size").unwrap();
        let expect: u32 = sorted.values.iter().fold(0u32, |a, &b| a.wrapping_add(b));
        prop_assert_eq!(sum, expect);
    }

    #[test]
    fn service_replies_match_a_row_mirror(session in session_strategy()) {
        let cfg = ServiceConfig {
            queue_cap: 64,
            ..ServiceConfig::default()
        };
        let mut svc = QueryService::open(MemDisk::new(), ProcModel::Dba2LsuEis { partial: true }, cfg)
            .unwrap();
        let mut mirror: BTreeMap<String, Columns> = BTreeMap::new();
        let mut batch = Vec::new();
        let mut last_gen = 0;
        for (op, t, n, seed, flush) in session {
            let table = format!("t{t}");
            let new_rows = rows(n, seed);
            let query = Request::Query {
                table: table.clone(),
                predicate: predicate(seed),
            };
            // Plan the request and its answer against the mirror as the
            // service will see it once every earlier request is served.
            let planned = match (mirror.get_mut(&table), op) {
                (None, 0..=1) => (query, None),
                (None, _) => {
                    mirror.insert(table.clone(), new_rows.clone());
                    (Request::Create { table, columns: new_rows }, None)
                }
                (Some(cols), 0..=4) => {
                    let expect = mirror_scan(cols, &predicate(seed));
                    (query, Some(expect))
                }
                (Some(cols), 5..=7) => {
                    for ((_, have), (_, add)) in cols.iter_mut().zip(&new_rows) {
                        have.extend(add);
                    }
                    (Request::Append { table, rows: new_rows }, None)
                }
                (Some(_), _) => {
                    mirror.remove(&table);
                    (Request::Drop { table }, None)
                }
            };
            batch.push(planned);
            if flush {
                run_batch(&mut svc, &mut batch, &mut last_gen)?;
            }
        }
        run_batch(&mut svc, &mut batch, &mut last_gen)?;
    }
}
