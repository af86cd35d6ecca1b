//! `request_niah_4k`: the user-visible path, one client in a closed loop.
//!
//! One operation is one request: `begin_decode` over a needle-in-a-haystack
//! prompt with SampleAttention (time to first token), then decode steps
//! (time per output token), then the answer read back from the prefill.
//! Every crate below sa-serve is on this path, the pool fans out across
//! the heads of a layer, and the 32 heads mix sparse, capped and
//! content-dependent retrieval slots.

use sa_baselines::{AttentionMethod, FullAttention, SampleAttentionMethod, WindowOnly};
use sa_json::Json;
use sa_model::{ModelConfig, SyntheticTransformer};
use sa_tensor::Matrix;
use sa_workloads::{needle_grid, NeedleConfig, Task};

use crate::probes;
use crate::run::{measured_loop, Recorder, RunOpts, RunOutcome, Size, MODEL_SEED};
use crate::spans::Tracer;
use crate::stats::{median, percentile};

/// Filler tokens `sa_workloads` appends after the question.
const INSTRUCTION_SUFFIX: usize = 48;
/// Depth intervals of the needle grid; successive requests walk them.
const DEPTHS: usize = 8;
/// Chunk size of the chunked-prefill probe (the serving path's shape).
const PROBE_CHUNK: usize = 512;

/// Needle-in-a-haystack prompts of exactly `seq_len` tokens, one per depth
/// interval. The seed picks every prompt's filler, marker and payload, and
/// which depth comes first.
pub fn needle_tasks(model: &SyntheticTransformer, seed: u64, seq_len: usize) -> Vec<Task> {
    let config = NeedleConfig {
        lengths: vec![seq_len - INSTRUCTION_SUFFIX],
        depth_intervals: DEPTHS,
        seed,
    };
    let mut tasks: Vec<Task> = needle_grid(model.config().vocab_size, &config)
        .into_iter()
        .map(|cell| cell.task)
        .collect();
    tasks.rotate_left((seed % DEPTHS as u64) as usize);
    for task in &tasks {
        assert_eq!(
            task.tokens.len(),
            seq_len,
            "sa-workloads changed its prompt suffix"
        );
    }
    tasks
}

struct Shape {
    seq_len: usize,
    decode_steps: usize,
    /// Decode steps the traced run takes in all, for a p95 with ten
    /// samples beyond it.
    traced_steps: usize,
}

fn shape(size: Size) -> Shape {
    match size {
        Size::Full => Shape {
            seq_len: 4096,
            decode_steps: 32,
            traced_steps: 224,
        },
        Size::Miniature => Shape {
            seq_len: 256,
            decode_steps: 4,
            traced_steps: 8,
        },
    }
}

struct Inputs {
    model: SyntheticTransformer,
    /// One prompt per needle depth; request `n` sends `tasks[n % DEPTHS]`.
    tasks: Vec<Task>,
    generate_ms: f64,
}

fn setup(tr: &mut Tracer, seed: u64, shape: &Shape) -> Inputs {
    let model = SyntheticTransformer::new(ModelConfig::chatglm2_like(MODEL_SEED))
        .expect("preset config is valid");
    let (tasks, generate_ms) = tr.time("workloads.generate", || {
        needle_tasks(&model, seed, shape.seq_len)
    });
    // Finish any lazy set-up inside the crates before the first request.
    let warm = &tasks[0].tokens[..shape.seq_len.min(256)];
    let mut session = model
        .begin_decode(warm, &SampleAttentionMethod::paper_default())
        .expect("warm-up prefill");
    session.step().expect("warm-up decode step");
    drop(session);
    Inputs {
        model,
        tasks,
        generate_ms,
    }
}

/// What one request measured.
struct Sample {
    ttft_ms: f64,
    step_ms: Vec<f64>,
    fallback_heads: usize,
    matched: bool,
}

/// One operation: the `n`-th request of the run. `dense_answer` is the
/// dense-attention answer when the run has computed it; `steps` decode
/// steps follow the prefill.
fn request(
    rec: &mut Recorder,
    inputs: &Inputs,
    n: usize,
    method: &dyn AttentionMethod,
    steps: usize,
    dense_answer: Option<u32>,
) -> Sample {
    let model = &inputs.model;
    let task = &inputs.tasks[n % DEPTHS];
    let question = task.questions[0];
    rec.tr.next_op();
    let open = rec.tr.open("bench.op");
    let mut problems = Vec::new();
    let mut sample = Sample {
        ttft_ms: 0.0,
        step_ms: Vec::with_capacity(steps),
        fallback_heads: 0,
        matched: false,
    };
    let (session, ttft_ms) = rec.tr.time("model.begin_decode", || {
        model.begin_decode(&task.tokens, method)
    });
    sample.ttft_ms = ttft_ms;
    match session {
        Ok(mut session) => {
            for _ in 0..steps {
                let (step, ms) = rec.tr.time("model.decode_step", || session.step());
                sample.step_ms.push(ms);
                if let Err(e) = step {
                    problems.push(format!("decode step failed: {e}"));
                    break;
                }
            }
            let prefill = session.prefill_result();
            let ((answer, _), _) = rec.tr.time("model.answer", || {
                model.answer_at_in(prefill, question.position, task.answer_range.clone())
            });
            sample.fallback_heads = prefill.fallback_heads();
            sample.matched =
                answer == question.expected && dense_answer.is_none_or(|d| d == answer);
            if answer != question.expected {
                problems.push(format!(
                    "answered {answer}, the planted payload is {}",
                    question.expected
                ));
            }
            if dense_answer.is_some_and(|d| d != answer) {
                problems.push(format!(
                    "answered {answer}, dense attention answers {dense_answer:?}"
                ));
            }
            if sample.fallback_heads > 0 {
                problems.push(format!(
                    "{} heads fell back: {:?}",
                    sample.fallback_heads,
                    prefill.fallback_tally()
                ));
            }
        }
        Err(e) => problems.push(format!("begin_decode failed: {e}")),
    }
    rec.tr.close(open);
    rec.tr.end_ops();
    rec.operation(problems);
    sample
}

pub fn run(opts: &RunOpts) -> RunOutcome {
    let shape = shape(opts.size);
    let mut rec = Recorder::new(opts);
    let inputs = rec.timed_setup(|tr| setup(tr, opts.seed, &shape));
    let method = SampleAttentionMethod::paper_default();
    rec.fact("seq_len", Json::Int(shape.seq_len as i64));
    rec.fact("decode_steps", Json::Int(shape.decode_steps as i64));
    rec.fact(
        "first_needle_depth_index",
        Json::Int((opts.seed % DEPTHS as u64) as i64),
    );

    if opts.traced {
        let layers = layer_probes(&mut rec, opts, &inputs, &method);
        // One traced request, decoding on past the operation's own steps.
        let sample = request(
            &mut rec,
            &inputs,
            0,
            &method,
            shape.traced_steps,
            Some(layers.dense_answer),
        );
        layers.record(&mut rec, &sample, &inputs, &shape);
    } else {
        // One request outside the timings (checked and counted like the
        // rest) lets buffers and page tables reach steady state.
        let warm = request(&mut rec, &inputs, 0, &method, shape.decode_steps, None);
        rec.fact("warmup_ttft_ms", Json::Float(warm.ttft_ms));
        let mut samples = Vec::new();
        measured_loop(opts.seconds, 2, || {
            samples.push(request(
                &mut rec,
                &inputs,
                samples.len() + 1,
                &method,
                shape.decode_steps,
                None,
            ));
        });
        rec.fact("requests", Json::Int(samples.len() as i64));
        let ttft_ms: Vec<f64> = samples.iter().map(|s| s.ttft_ms).collect();
        let step_ms: Vec<f64> = samples
            .iter()
            .flat_map(|s| s.step_ms.iter().copied())
            .collect();
        // No steps were taken only if every prefill failed.
        let step_p50 = if step_ms.is_empty() {
            0.0
        } else {
            median(&step_ms)
        };
        drop(inputs);
        rec.end_to_end(&ttft_ms, (step_p50, step_ms.len()), |tr| {
            setup(tr, opts.seed, &shape)
        });
    }
    rec.finish()
}

/// The prefill taken apart, each piece called on its own on the prompt.
struct LayerProbes {
    dense_answer: u32,
    dense_ms: f64,
    floor_ms: f64,
    prefill_ms: f64,
    layer_ms: Vec<f64>,
    chunked_ms: f64,
    sa_trace_overhead: f64,
    mean_density: f64,
    fallback_heads: usize,
}

fn layer_probes(
    rec: &mut Recorder,
    opts: &RunOpts,
    inputs: &Inputs,
    method: &SampleAttentionMethod,
) -> LayerProbes {
    let (_, sizes) = probes::run(
        &mut rec.tr,
        opts.seed,
        opts.size.probe_shape(),
        &mut rec.metrics,
    );
    rec.fact("probe_sizes", sizes);
    let (model, task) = (&inputs.model, &inputs.tasks[0]);
    let question = task.questions[0];
    let tokens = &task.tokens;

    let (dense, dense_ms) = rec.tr.time("model.prefill_dense", || {
        model.prefill(tokens, &FullAttention::new())
    });
    let dense = dense.expect("dense prefill");
    let (dense_answer, _) =
        model.answer_at_in(&dense, question.position, task.answer_range.clone());
    drop(dense);

    // A one-token window leaves projections, MLP and readout: the floor
    // no attention method can go below.
    let floor = WindowOnly::new(1.0 / tokens.len() as f32).expect("ratio in (0, 1]");
    let (result, floor_ms) = rec
        .tr
        .time("model.prefill_floor", || model.prefill(tokens, &floor));
    drop(result.expect("window-only prefill"));

    // `SyntheticTransformer::prefill`, layer by layer.
    let open = rec.tr.open("model.prefill");
    let (mut hidden, _) = rec
        .tr
        .time("model.embed", || model.embedder().embed(tokens));
    let mut layer_ms = Vec::new();
    let mut reports = Vec::new();
    let mut layer1_input: Option<Matrix> = None;
    for (index, layer) in model.layers().iter().enumerate() {
        if index == 1 {
            layer1_input = Some(hidden.clone());
        }
        let name = if index == 0 {
            "model.layer0"
        } else {
            "model.layer_rest"
        };
        let (out, ms) = rec.tr.time(name, || layer.forward_prefill(&hidden, method));
        let out = out.expect("layer forward");
        layer_ms.push(ms);
        reports.extend(out.head_reports);
        hidden = out.hidden;
    }
    let prefill_ms = rec.tr.close(open);

    let (chunked, chunked_ms) = rec.tr.time("model.chunked_prefill", || {
        model.prefill_chunked(tokens, PROBE_CHUNK, method)
    });
    drop(chunked.expect("chunked prefill"));

    // The same layer call with sa-trace's own probes switched on.
    let mut sa_trace_overhead = 0.0;
    if let Some(input) = layer1_input {
        sa_trace::set_enabled(true);
        let (out, traced_ms) = rec.tr.time("trace.layer_traced", || {
            model.layers()[1].forward_prefill(&input, method)
        });
        sa_trace::set_enabled(false);
        drop(sa_trace::drain());
        drop(out.expect("layer forward under sa-trace"));
        sa_trace_overhead = traced_ms / layer_ms[1] - 1.0;
    }

    LayerProbes {
        dense_answer,
        dense_ms,
        floor_ms,
        prefill_ms,
        layer_ms,
        chunked_ms,
        sa_trace_overhead,
        mean_density: reports.iter().map(|r| r.density).sum::<f64>() / reports.len().max(1) as f64,
        fallback_heads: reports.iter().filter(|r| r.fell_back).count(),
    }
}

impl LayerProbes {
    fn record(&self, rec: &mut Recorder, sample: &Sample, inputs: &Inputs, shape: &Shape) {
        let m = &mut rec.metrics;
        m.set("model.prefill_ms_p50", self.prefill_ms, 1);
        m.set("model.prefill_dense_ms_p50", self.dense_ms, 1);
        m.set("model.speedup_vs_dense", self.dense_ms / self.prefill_ms, 1);
        m.set("model.prefill_floor_ms_p50", self.floor_ms, 1);
        m.set(
            "model.attention_share",
            1.0 - self.floor_ms / self.prefill_ms,
            1,
        );
        m.set("model.layer0_ms_p50", self.layer_ms[0], 1);
        if self.layer_ms.len() > 1 {
            m.set(
                "model.layer_rest_ms_p50",
                median(&self.layer_ms[1..]),
                self.layer_ms.len() - 1,
            );
        }
        m.set("model.chunked_prefill_ms_p50", self.chunked_ms, 1);
        if !sample.step_ms.is_empty() {
            m.set(
                "model.decode_step_ms_p50",
                median(&sample.step_ms),
                sample.step_ms.len(),
            );
        }
        if let Some(p95) = percentile(&sample.step_ms, 95.0) {
            m.set("model.decode_step_ms_p95", p95, sample.step_ms.len());
        }
        m.set(
            "model.prefill_tokens_per_s",
            shape.seq_len as f64 / (self.prefill_ms / 1e3),
            1,
        );
        m.set("model.mean_density", self.mean_density, 1);
        m.set(
            "model.fallback_heads",
            (self.fallback_heads + sample.fallback_heads) as f64,
            2,
        );
        // Computed: K and V, f32, every layer and KV head, at prompt length.
        let cfg = inputs.model.config();
        let kv_bytes = cfg.num_layers * cfg.num_kv_heads * shape.seq_len * cfg.head_dim * 2 * 4;
        m.set("model.kv_cache_mb", kv_bytes as f64 / (1 << 20) as f64, 1);
        m.set(
            "model.answer_match_share",
            f64::from(u8::from(sample.matched)),
            1,
        );
        m.set("trace.overhead_share_prefill", self.sa_trace_overhead, 1);
        m.set("workloads.generate_ms", inputs.generate_ms, 1);
    }
}
