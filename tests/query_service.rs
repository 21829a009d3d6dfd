//! End-to-end tests of the durable serving stack through the `dbasip`
//! facade: snapshot-isolated concurrent readers, first-committer-wins
//! OCC with a typed retryable error for the loser, admission-queue
//! shedding under a synchronized burst, and crash recovery of state
//! built entirely through the service.

use dbasip::dbisa::ProcModel;
use dbasip::query::{
    Arrival, Predicate, QueryEngine, QueryError, QueryService, Reply, Request, ServiceConfig, Table,
};
use dbasip::storage::{Columns, MemDisk};
use std::sync::Arc;
use std::thread;

const MODEL: ProcModel = ProcModel::Dba2LsuEis { partial: true };

fn items(n: u32) -> Columns {
    vec![
        ("color".into(), (0..n).map(|i| i % 5).collect()),
        ("size".into(), (0..n).map(|i| i % 3).collect()),
    ]
}

fn open_seeded(n: u32) -> QueryService<MemDisk> {
    let mut s = QueryService::open(MemDisk::new(), MODEL, ServiceConfig::default()).unwrap();
    let mut txn = s.store().begin();
    txn.create_table("items", items(n));
    s.store_mut().commit(txn).unwrap();
    s
}

#[test]
fn occ_two_writers_loser_gets_typed_retryable_error_and_retry_succeeds() {
    let mut s = open_seeded(30);

    // Two transactions begin against the same generation.
    let mut winner = s.store().begin();
    winner.append_rows(
        "items",
        vec![("color".into(), vec![1]), ("size".into(), vec![1])],
    );
    let mut loser = s.store().begin();
    loser.append_rows(
        "items",
        vec![("color".into(), vec![2]), ("size".into(), vec![2])],
    );

    s.store_mut().commit(winner).expect("first committer wins");
    let err: QueryError = s.store_mut().commit(loser).unwrap_err().into();
    match &err {
        QueryError::WriteConflict {
            base_gen,
            current_gen,
        } => {
            assert!(current_gen > base_gen, "{err}");
        }
        other => panic!("expected WriteConflict, got {other:?}"),
    }
    assert!(err.is_retryable(), "OCC conflicts must be retryable");

    // The canonical client loop: begin again against the new
    // generation, and the retry lands.
    let mut retry = s.store().begin();
    retry.append_rows(
        "items",
        vec![("color".into(), vec![2]), ("size".into(), vec![2])],
    );
    s.store_mut()
        .commit(retry)
        .expect("retry on fresh generation");
    assert_eq!(s.view().table("items").unwrap().columns[0].1.len(), 32);
}

#[test]
fn readers_hold_their_snapshot_across_threads_while_writers_commit() {
    let mut s = open_seeded(24);
    let before = s.view();
    let rows_before = before.table("items").unwrap().columns[0].1.len();

    // Writers advance the store while the old view is alive.
    for _ in 0..3 {
        let mut txn = s.store().begin();
        txn.append_rows(
            "items",
            vec![("color".into(), vec![9]), ("size".into(), vec![9])],
        );
        s.store_mut().commit(txn).unwrap();
    }
    let after = s.view();

    // Views are plain Arcs — ship them to other threads and read there.
    let handles: Vec<_> = (0..4)
        .map(|i| {
            let v = if i % 2 == 0 {
                before.clone()
            } else {
                after.clone()
            };
            thread::spawn(move || v.table("items").map(|t| t.columns[0].1.len()))
        })
        .collect();
    let lens: Vec<usize> = handles
        .into_iter()
        .map(|h| h.join().unwrap().unwrap())
        .collect();
    assert_eq!(
        lens,
        vec![rows_before, rows_before + 3, rows_before, rows_before + 3]
    );
    assert_eq!(
        before.table("items").unwrap().columns[0].1.len(),
        rows_before
    );
}

#[test]
fn a_burst_beyond_queue_capacity_sheds_with_overloaded() {
    let mut s = open_seeded(24);
    let burst: Vec<Arrival> = (0..10)
        .map(|_| {
            Arrival::new(
                0,
                Request::Query {
                    table: "items".into(),
                    predicate: Predicate::eq("color", 1).and(Predicate::eq("size", 1)),
                },
            )
        })
        .collect();
    let mut svc = QueryService::open(
        s.store_mut().disk_mut().clone(),
        MODEL,
        ServiceConfig {
            queue_cap: 3,
            ..Default::default()
        },
    )
    .unwrap();
    let report = svc.run(&burst);
    // All ten land on the same cycle, so the server hasn't started yet:
    // the queue fills to capacity and everything beyond is shed.
    assert_eq!(report.stats.shed, 7);
    assert_eq!(report.stats.admitted, 3);
    for c in report.completions.iter().filter(|c| c.result.is_err()) {
        match c.result.as_ref().unwrap_err() {
            QueryError::Overloaded { queue_depth } => {
                assert_eq!(*queue_depth, 3);
                assert!(c.latency() == 0, "shed without executing");
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
    }
}

#[test]
fn deadlines_bound_admitted_work_and_are_fatal() {
    let mut s = open_seeded(24);
    let mut svc = QueryService::open(
        s.store_mut().disk_mut().clone(),
        MODEL,
        ServiceConfig {
            deadline: Some(40),
            ..Default::default()
        },
    )
    .unwrap();
    let report = svc.run(&[Arrival::new(
        0,
        Request::Query {
            table: "items".into(),
            predicate: Predicate::eq("color", 1).and(Predicate::eq("size", 1)),
        },
    )]);
    let c = &report.completions[0];
    match c.result.as_ref().unwrap_err() {
        e @ QueryError::DeadlineExceeded { budget } => {
            assert_eq!(*budget, 40);
            assert!(!e.is_retryable(), "deadline expiry must not burn retries");
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert_eq!(c.retries, 0);
}

#[test]
fn state_built_through_the_service_survives_crash_recovery() {
    let workload: Vec<Arrival> = std::iter::once(Arrival::new(
        0,
        Request::Create {
            table: "items".into(),
            columns: items(12),
        },
    ))
    .chain((1..=6).map(|i| {
        Arrival::new(
            i * 10_000,
            Request::Append {
                table: "items".into(),
                rows: vec![("color".into(), vec![i as u32]), ("size".into(), vec![0])],
            },
        )
    }))
    .collect();

    let mut svc = QueryService::open(MemDisk::new(), MODEL, ServiceConfig::default()).unwrap();
    let report = svc.run(&workload);
    assert_eq!(report.stats.succeeded, 7);
    assert!(matches!(
        report.completions[6].result,
        Ok(Reply::Committed(_))
    ));
    let digest = svc.store().state_digest();

    let mut disk = svc.into_store().into_disk();
    disk.crash();
    let mut recovered = QueryService::open(disk, MODEL, ServiceConfig::default()).unwrap();
    assert_eq!(recovered.store().state_digest(), digest);

    // And the recovered service answers queries over the replayed rows.
    let report = recovered.run(&[Arrival::new(
        0,
        Request::Query {
            table: "items".into(),
            predicate: Predicate::eq("color", 3).and(Predicate::eq("size", 0)),
        },
    )]);
    match &report.completions[0].result {
        Ok(Reply::Rids(rids)) => assert!(!rids.is_empty()),
        other => panic!("query after recovery failed: {other:?}"),
    }
}

#[test]
fn views_are_send_and_arc_shareable() {
    let s = open_seeded(12);
    let view = Arc::new(s.view());
    let v2 = Arc::clone(&view);
    let t = thread::spawn(move || v2.table("items").unwrap().columns.len());
    assert_eq!(t.join().unwrap(), 2);
}

#[test]
fn the_index_cache_never_serves_a_stale_generation() {
    // Every append makes a new table image and frees the previous one
    // once no view holds it, so the allocator is free to hand a later
    // generation the address of an earlier one. The service's RIDs must
    // match an index built fresh from the same snapshot every time.
    let mut s = open_seeded(10);
    let reference = QueryEngine::new(MODEL);
    let predicate = Predicate::eq("color", 1).and(Predicate::eq("size", 1));
    for gen in 0..40u32 {
        let mut txn = s.store().begin();
        txn.append_rows(
            "items",
            vec![
                ("color".into(), vec![1]),
                ("size".into(), vec![1 + gen % 2]),
            ],
        );
        s.store_mut().commit(txn).unwrap();

        let expect = {
            let view = s.view();
            let img = view.table("items").unwrap();
            let cols: Vec<(&str, Vec<u32>)> = img
                .columns
                .iter()
                .map(|(n, v)| (n.as_str(), v.clone()))
                .collect();
            let fresh = Table::try_build(&img.name, &cols).unwrap();
            reference.execute(&fresh, &predicate).unwrap().rids
        };
        let report = s.run(&[Arrival::new(
            0,
            Request::Query {
                table: "items".into(),
                predicate: predicate.clone(),
            },
        )]);
        match &report.completions[0].result {
            Ok(Reply::Rids(rids)) => assert_eq!(rids, &expect, "generation {gen}"),
            other => panic!("query on generation {gen} failed: {other:?}"),
        }
    }
}
