//! Figure 4 (and Appendix Figure 8): Needle-in-a-Haystack scores per
//! method across lengths and depths.
//!
//! Prints one depth × length score grid per method plus totals.
//! Paper shape: full attention and SampleAttention solid everywhere;
//! StreamingLLM a narrow band (sinks + recent window); hash/LSH methods
//! patchy.

use sa_baselines::{
    AttentionMethod, BigBird, FullAttention, HashSparse, HyperAttention, SampleAttentionMethod,
    StreamingLlm,
};
use sa_bench::{f, write_json, Args};
use sa_model::{ModelConfig, SyntheticTransformer};
use sa_workloads::{needle_grid, NeedleCell, NeedleConfig};
struct MethodGrid {
    method: String,
    lengths: Vec<usize>,
    depths: Vec<f64>,
    /// `scores[depth][length]`
    scores: Vec<Vec<f32>>,
    total: f32,
}

sa_json::impl_json_struct!(MethodGrid {
    method,
    lengths,
    depths,
    scores,
    total
});

fn main() {
    let args = Args::parse();
    let model = SyntheticTransformer::new(ModelConfig::chatglm2_like(args.seed)).expect("model");
    let lengths: Vec<usize> = if args.quick {
        vec![256, 512]
    } else {
        vec![256, 512, 768, 1024]
    };
    let depths = if args.quick { 4 } else { 8 };
    let cells: Vec<NeedleCell> = needle_grid(
        model.config().vocab_size,
        &NeedleConfig {
            lengths: lengths.clone(),
            depth_intervals: depths,
            seed: args.seed,
        },
    );
    let depth_values: Vec<f64> = cells
        .iter()
        .take(depths)
        .map(|c| c.depth_fraction)
        .collect();

    let methods: Vec<Box<dyn AttentionMethod>> = vec![
        Box::new(FullAttention::new()),
        Box::new(SampleAttentionMethod::paper_default()),
        Box::new(BigBird::paper_config(args.seed)),
        Box::new(StreamingLlm::paper_config()),
        Box::new(HyperAttention::scaled(512, args.seed)),
        Box::new(HashSparse::paper_config(args.seed)),
    ];

    let mut grids = Vec::new();
    for m in &methods {
        let mut scores = vec![vec![0.0f32; lengths.len()]; depths];
        for cell in &cells {
            let li = lengths.iter().position(|&l| l == cell.length).unwrap();
            let di = depth_values
                .iter()
                .position(|&d| (d - cell.depth_fraction).abs() < 1e-9)
                .unwrap();
            scores[di][li] = cell.task.evaluate(&model, m.as_ref()).expect("evaluate");
        }
        let total: f32 = scores.iter().flatten().sum();
        println!("== {} (total {total:.0} / {}) ==", m.name(), cells.len() * 100);
        print!("{:>8}", "depth\\S");
        for &l in &lengths {
            print!("{l:>7}");
        }
        println!();
        for (di, row) in scores.iter().enumerate() {
            print!("{:>8}", f(depth_values[di], 2));
            for v in row {
                print!("{:>7}", f(*v as f64, 0));
            }
            println!();
        }
        println!();
        grids.push(MethodGrid {
            method: m.name().to_string(),
            lengths: lengths.clone(),
            depths: depth_values.clone(),
            scores,
            total,
        });
    }

    println!("Totals (max {}):", cells.len() * 100);
    for g in &grids {
        println!("  {:32} {:>8}", g.method, f(g.total as f64, 0));
    }
    println!("\nPaper shape: FullAttention and SampleAttention near-perfect across the grid;\nStreamingLLM only at depth~0 (sinks) and depth~1 (window); others patchy.");
    write_json(&args, "fig4_needle", &grids);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_json_round_trip() {
        let p = MethodGrid {
            method: "sample_attention".into(),
            lengths: vec![256, 512],
            depths: vec![0.0, 0.5, 1.0],
            scores: vec![vec![100.0, 100.0], vec![99.0, 98.0], vec![100.0, 97.0]],
            total: 99.0,
        };
        let text = sa_json::to_string(&p);
        let back: MethodGrid = sa_json::from_str(&text).unwrap();
        assert_eq!(sa_json::to_string(&back), text);
    }
}
