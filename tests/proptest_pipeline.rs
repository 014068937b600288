//! Property tests over randomly generated model architectures: the whole
//! trace -> graph -> simulate pipeline must hold for models beyond the zoo.

use daydream::core::{simulate, ProfiledGraph};
use daydream::models::{ActKind, Application, LayerKind, Model, ModelBuilder, Optimizer, Shape};
use daydream::runtime::{baseline_plan, ExecConfig, Executor};
use proptest::prelude::*;

/// Strategy: a random MLP (Linear / activation / norm / dropout stack).
fn arb_mlp() -> impl Strategy<Value = Model> {
    let dims = prop::sample::select(vec![32u64, 64, 128, 256, 512]);
    let layer_spec = (dims, 0u8..4); // (output width, decoration kind)
    (
        prop::sample::select(vec![64u64, 128, 256]),
        prop::collection::vec(layer_spec, 1..6),
        prop::bool::ANY,
    )
        .prop_map(|(input, specs, adam)| {
            let mut b = ModelBuilder::new("random-mlp", Shape::features(input));
            let mut in_f = input;
            for (i, (out_f, deco)) in specs.iter().enumerate() {
                b.push(
                    format!("fc{i}"),
                    LayerKind::Linear {
                        in_features: in_f,
                        out_features: *out_f,
                        bias: true,
                    },
                );
                match deco {
                    0 => {
                        b.push(
                            format!("relu{i}"),
                            LayerKind::Activation { f: ActKind::ReLU },
                        );
                    }
                    1 => {
                        b.push(
                            format!("gelu{i}"),
                            LayerKind::Activation { f: ActKind::Gelu },
                        );
                    }
                    2 => {
                        b.push(format!("ln{i}"), LayerKind::LayerNorm { dim: *out_f });
                    }
                    _ => {
                        b.push(format!("drop{i}"), LayerKind::Dropout);
                    }
                }
                in_f = *out_f;
            }
            b.push(
                "head",
                LayerKind::Linear {
                    in_features: in_f,
                    out_features: 10,
                    bias: true,
                },
            );
            b.push("loss", LayerKind::CrossEntropyLoss { classes: 10 });
            let opt = if adam {
                Optimizer::Adam
            } else {
                Optimizer::Sgd { momentum: true }
            };
            b.build(opt, 8, Application::ImageClassification, "synthetic")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_models_survive_the_pipeline(model in arb_mlp(), batch in 1u64..12, seed in 0u64..1000) {
        prop_assert!(model.validate().is_ok());
        let cfg = ExecConfig::pytorch_2080ti().with_batch(batch).with_seed(seed);
        let ex = Executor::new(&model, &cfg);
        let plan = baseline_plan(&model, batch);
        let trace = ex.run(&plan);

        // Structural invariants of the trace.
        prop_assert!(trace.validate().is_ok(), "trace invalid: {:?}", trace.validate().err());
        // Kernel count matches the lowered plan.
        let kernels = trace
            .activities
            .iter()
            .filter(|a| matches!(a.kind, daydream::trace::ActivityKind::Kernel))
            .count();
        prop_assert_eq!(kernels, plan.kernel_count());

        // Graph construction and replay fidelity.
        let pg = ProfiledGraph::from_trace(&trace);
        prop_assert!(pg.graph.validate().is_ok());
        let sim = simulate(&pg.graph).expect("DAG");
        let measured = trace.meta.iteration_ns() as f64;
        let err_ns = (sim.makespan_ns as f64 - measured).abs();
        // Algorithm 1 (line 16) charges a task's gap to *all* successors,
        // including cross-thread ones; against the executor's semantics that
        // is a constant few-tens-of-microseconds offset — invisible on real
        // models, a few percent of a sub-millisecond toy MLP. Allow 1%
        // relative or 100 us absolute, whichever is larger.
        prop_assert!(
            err_ns < (measured / 100.0).max(100_000.0),
            "replay error {err_ns:.0} ns on a {measured:.0} ns iteration"
        );

        // Every kernel maps to a layer (memcpys excepted).
        let unmapped = pg
            .graph
            .select(|t| t.kind.is_gpu() && t.layer.is_none() && !t.name.contains("memcpy"));
        prop_assert!(unmapped.is_empty(), "{} unmapped kernels", unmapped.len());
    }

    #[test]
    fn amp_keeps_random_models_valid(model in arb_mlp(), batch in 1u64..8) {
        let cfg = ExecConfig::pytorch_2080ti().with_batch(batch);
        let ex = Executor::new(&model, &cfg);
        let trace = ex.run(&baseline_plan(&model, batch));
        let mut pg = ProfiledGraph::from_trace(&trace);
        let before = simulate(&pg.graph).expect("DAG").makespan_ns;
        daydream::core::whatif::plan_amp(&mut pg.graph);
        prop_assert!(pg.graph.validate().is_ok());
        let after = simulate(&pg.graph).expect("DAG").makespan_ns;
        prop_assert!(after <= before, "AMP must never slow a graph down");
    }

    #[test]
    fn fused_adam_valid_on_random_adam_models(model in arb_mlp(), batch in 1u64..8) {
        prop_assume!(model.optimizer == Optimizer::Adam);
        let cfg = ExecConfig::pytorch_2080ti().with_batch(batch);
        let ex = Executor::new(&model, &cfg);
        let trace = ex.run(&baseline_plan(&model, batch));
        let mut pg = ProfiledGraph::from_trace(&trace);
        let before = simulate(&pg.graph).expect("DAG").makespan_ns;
        daydream::core::whatif::plan_fused_adam(&mut pg.graph);
        prop_assert!(pg.graph.validate().is_ok());
        let after = simulate(&pg.graph).expect("DAG").makespan_ns;
        prop_assert!(after <= before, "removing launches must never slow the graph");
    }
}
