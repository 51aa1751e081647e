//! The benchmark's inputs are a function of the seed, and the program
//! is handed those inputs and nothing else.

use std::collections::HashMap;

use rtpool_benchmark::exec_wl::pool_config;
use rtpool_benchmark::inputs::{self, ExecShape, OpKind, ServeInputs};
use rtpool_benchmark::report::{END_TO_END, PER_LAYER};
use rtpool_benchmark::serve_wl::{server_config, SLICE_OPS};
use rtpool_benchmark::{json, Workload};
use rtpool_exec::{Engine, SyncBackend};

fn kind_mix(inputs: &ServeInputs) -> HashMap<OpKind, usize> {
    let mut mix = HashMap::new();
    for op in &inputs.stream {
        *mix.entry(op.kind).or_default() += 1;
    }
    mix
}

#[test]
fn same_seed_same_bytes_for_every_serve_stream_and_edit_script() {
    for generate in [inputs::admit_cold, inputs::admit_resident] {
        let (a, b) = (generate(7), generate(7));
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.edits, b.edits);
        assert_eq!(a.stream, b.stream, "expected answers are part of the input");
    }
}

#[test]
fn another_seed_gives_other_streams_with_the_same_kind_mix() {
    for generate in [inputs::admit_cold, inputs::admit_resident] {
        let (a, b) = (generate(7), generate(8));
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(kind_mix(&a), kind_mix(&b));
        assert_eq!(a.stream.len(), b.stream.len());
        assert_eq!(a.stream.len() % SLICE_OPS, 0, "cycles are whole slices");
    }
    let resident = inputs::admit_resident(7);
    let mix = kind_mix(&resident);
    let n = resident.stream.len();
    assert_eq!(mix[&OpKind::Hash] * 10, n * 3);
    assert_eq!(mix[&OpKind::Edit] * 10, n * 5);
    assert_eq!(mix[&OpKind::Source] * 10, n * 2);
    assert_ne!(resident.edits, inputs::admit_resident(8).edits);
}

#[test]
fn exec_graphs_follow_the_seed_but_keep_their_shape() {
    for (shape, nodes) in [(ExecShape::Flat, 258), (ExecShape::Blocking, 89)] {
        let (a, b, c) = (
            inputs::exec(shape, 7),
            inputs::exec(shape, 7),
            inputs::exec(shape, 8),
        );
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        for g in [&a.dag, &c.dag] {
            assert_eq!(g.node_count(), nodes);
            assert_eq!(
                g.blocking_regions().len(),
                2 * 8 * usize::from(shape == ExecShape::Blocking)
            );
        }
        assert_eq!(a.dag.edge_count(), c.dag.edge_count());
    }
}

#[test]
fn fig2_calls_sweep_consecutive_seeds() {
    assert_eq!(inputs::fig2(7, 3).seed, inputs::fig2(7, 3).seed);
    assert_eq!(inputs::fig2(7, 3).seed, 10);
    assert_ne!(inputs::fig2(7, 0).seed, inputs::fig2(8, 0).seed);
    assert_eq!(
        inputs::fig2(7, 0).sets_per_point,
        inputs::fig2(8, 5).sets_per_point
    );
}

#[test]
fn no_seed_reaches_the_server_or_the_pool() {
    // Whatever the seed, the program objects are configured alike: the
    // seed shapes the inputs only. (`Fig2Params.seed` is the one
    // exception, and it *is* the fig2 input.)
    let (a, b) = (inputs::admit_resident(7), inputs::admit_resident(8));
    assert_eq!(
        format!("{:?}", server_config(&a, false)),
        format!("{:?}", server_config(&b, false))
    );
    for shape in [ExecShape::Flat, ExecShape::Blocking] {
        for engine in [Engine::V1Condvar, Engine::V2LockFree] {
            let config = format!("{:?}", pool_config(shape, engine, SyncBackend::Suspend));
            assert!(config.contains("faults: None"), "{config}");
            if shape == ExecShape::Flat {
                assert!(config.contains("WorkStealing { seed: 24301 }"), "{config}");
            }
        }
    }
}

#[test]
fn the_registry_lists_exactly_what_the_benchmark_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
        .expect("BENCHMARK.json is JSON");
    let names = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(json::Value::as_array)
            .expect("a list")
            .iter()
            .map(|e| {
                let field = |k: &str| e.get(k).and_then(json::Value::as_str).expect(k).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let (listed, printed) = (names(key), own(table));
        let missing: Vec<_> = printed.iter().filter(|m| !listed.contains(m)).collect();
        let stale: Vec<_> = listed.iter().filter(|m| !printed.contains(m)).collect();
        assert!(
            missing.is_empty() && stale.is_empty(),
            "{key}: not in BENCHMARK.json {missing:?}; not printed {stale:?}"
        );
        assert!(listed == printed, "{key}: same metrics, another order");
    }
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(json::Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(json::Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    let own_workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, own_workloads);
}
