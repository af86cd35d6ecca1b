//! LongBench-proxy: six task families with distinct planting geometry.


use sa_tensor::DeterministicRng;

use crate::vocab::BLANK_TOKEN;
use crate::{Question, Task, TaskFamily, VocabLayout};

/// Re-export of the family enum restricted to LongBench (alias for
/// readability at call sites).
pub type LongBenchFamily = TaskFamily;

/// Generates the LongBench-proxy suite: `instances` tasks per family at
/// prompt length ~`length`.
///
/// # Panics
///
/// Panics if `length < 64` or `instances == 0`.
pub fn longbench_suite(
    vocab_size: usize,
    length: usize,
    instances: usize,
    seed: u64,
) -> Vec<Task> {
    assert!(length >= 64, "length too short: {length}");
    assert!(instances > 0, "need at least one instance per family");
    let vocab = VocabLayout::for_vocab(vocab_size);
    let mut tasks = Vec::new();
    for inst in 0..instances {
        let s = seed.wrapping_mul(0x9e37_79b9).wrapping_add(inst as u64);
        tasks.push(single_doc_qa(&vocab, length, s));
        tasks.push(multi_doc_qa(&vocab, length, s ^ 1));
        tasks.push(summarization(&vocab, length, s ^ 2));
        tasks.push(few_shot(&vocab, length, s ^ 3));
        tasks.push(synthetic_retrieval(&vocab, length, s ^ 4));
        tasks.push(code_completion(&vocab, length, s ^ 5));
    }
    tasks
}

use crate::haystack::haystack;

use crate::haystack::Planter;

/// Plants a fact at its primary position and once more at a random
/// earlier spot, collision-free. Real documents state facts redundantly
/// (a needle is a whole sentence; an answer has multi-token support); a
/// single load-bearing KV entry would make the benchmark artificially
/// brittle compared to the suites the paper evaluates on.
fn plant_redundant(
    planter: &mut Planter,
    tokens: &mut [u32],
    pos: usize,
    marker: u32,
    payload: u32,
    rng: &mut DeterministicRng,
) {
    let used = planter.plant(tokens, pos, marker, payload);
    planter.plant_copy(tokens, used, marker, payload, rng);
}

/// Appends question blocks (`marker` + blank separator) and returns their
/// positions.
fn append_questions(tokens: &mut Vec<u32>, markers: &[u32]) -> Vec<usize> {
    let mut positions = Vec::with_capacity(markers.len());
    for &m in markers {
        tokens.push(m);
        positions.push(tokens.len() - 1);
        tokens.push(BLANK_TOKEN);
    }
    positions
}

fn single_doc_qa(vocab: &VocabLayout, length: usize, seed: u64) -> Task {
    let mut rng = DeterministicRng::new(seed);
    let mut tokens = haystack(vocab, length, &mut rng);
    let marker = vocab.marker(rng.index(vocab.num_markers()));
    let payload = vocab.payload(rng.index(vocab.num_payloads()));
    let mut planter = Planter::new();
    let pos = 1 + rng.index(length - 8);
    plant_redundant(&mut planter, &mut tokens, pos, marker, payload, &mut rng);
    let q = append_questions(&mut tokens, &[marker]);
    crate::haystack::append_suffix(vocab, &mut tokens, &mut rng);
    Task {
        name: format!("singledoc_{seed:x}"),
        family: TaskFamily::SingleDocQa,
        tokens,
        questions: vec![Question {
            position: q[0],
            expected: payload,
        }],
        answer_range: vocab.payload_range(),
    }
}

fn multi_doc_qa(vocab: &VocabLayout, length: usize, seed: u64) -> Task {
    let mut rng = DeterministicRng::new(seed);
    let mut tokens = haystack(vocab, length, &mut rng);
    // Four "documents" (quarters), each holding its own fact.
    let docs = 4;
    let marker_ids = rng.distinct_indices(vocab.num_markers(), docs);
    let mut planter = Planter::new();
    let mut facts = Vec::new();
    for (d, &marker_id) in marker_ids.iter().enumerate().take(docs) {
        let marker = vocab.marker(marker_id);
        let payload = vocab.payload(rng.index(vocab.num_payloads()));
        let lo = 1 + d * (length - 8) / docs;
        let hi = 1 + (d + 1) * (length - 8) / docs - 2;
        let pos = lo + rng.index(hi - lo);
        plant_redundant(&mut planter, &mut tokens, pos, marker, payload, &mut rng);
        facts.push((marker, payload));
    }
    // Question asks for one specific document's fact.
    let (marker, payload) = facts[rng.index(docs)];
    let q = append_questions(&mut tokens, &[marker]);
    crate::haystack::append_suffix(vocab, &mut tokens, &mut rng);
    Task {
        name: format!("multidoc_{seed:x}"),
        family: TaskFamily::MultiDocQa,
        tokens,
        questions: vec![Question {
            position: q[0],
            expected: payload,
        }],
        answer_range: vocab.payload_range(),
    }
}

fn summarization(vocab: &VocabLayout, length: usize, seed: u64) -> Task {
    let mut rng = DeterministicRng::new(seed);
    let mut tokens = haystack(vocab, length, &mut rng);
    // A "summary" must recover all key facts: five facts, five questions.
    let k = 5;
    let marker_ids = rng.distinct_indices(vocab.num_markers(), k);
    let mut planter = Planter::new();
    let mut facts = Vec::new();
    for (f, &marker_id) in marker_ids.iter().enumerate().take(k) {
        let marker = vocab.marker(marker_id);
        let payload = vocab.payload(rng.index(vocab.num_payloads()));
        let lo = 1 + f * (length - 8) / k;
        let hi = 1 + (f + 1) * (length - 8) / k - 2;
        plant_redundant(&mut planter, &mut tokens, lo + rng.index(hi - lo), marker, payload, &mut rng);
        facts.push((marker, payload));
    }
    let markers: Vec<u32> = facts.iter().map(|&(m, _)| m).collect();
    let positions = append_questions(&mut tokens, &markers);
    crate::haystack::append_suffix(vocab, &mut tokens, &mut rng);
    let questions = positions
        .into_iter()
        .zip(&facts)
        .map(|(position, &(_, payload))| Question {
            position,
            expected: payload,
        })
        .collect();
    Task {
        name: format!("summ_{seed:x}"),
        family: TaskFamily::Summarization,
        tokens,
        questions,
        answer_range: vocab.payload_range(),
    }
}

fn few_shot(vocab: &VocabLayout, length: usize, seed: u64) -> Task {
    let mut rng = DeterministicRng::new(seed);
    let mut tokens = haystack(vocab, length, &mut rng);
    // The same example pair repeated three times across the context (as
    // few-shot exemplars repeat a label mapping).
    let marker = vocab.marker(rng.index(vocab.num_markers()));
    let payload = vocab.payload(rng.index(vocab.num_payloads()));
    let mut planter = Planter::new();
    for r in 0..3 {
        let lo = 1 + r * (length - 8) / 3;
        let hi = 1 + (r + 1) * (length - 8) / 3 - 2;
        planter.plant(&mut tokens, lo + rng.index(hi - lo), marker, payload);
    }
    let q = append_questions(&mut tokens, &[marker]);
    crate::haystack::append_suffix(vocab, &mut tokens, &mut rng);
    Task {
        name: format!("fewshot_{seed:x}"),
        family: TaskFamily::FewShotLearning,
        tokens,
        questions: vec![Question {
            position: q[0],
            expected: payload,
        }],
        answer_range: vocab.payload_range(),
    }
}

fn synthetic_retrieval(vocab: &VocabLayout, length: usize, seed: u64) -> Task {
    let mut rng = DeterministicRng::new(seed);
    let mut tokens = haystack(vocab, length, &mut rng);
    // Distractor-heavy passkey retrieval: many facts, three queried.
    let k = (length / 40).clamp(6, vocab.num_markers().min(20));
    let marker_ids = rng.distinct_indices(vocab.num_markers(), k);
    let mut planter = Planter::new();
    let mut facts = Vec::new();
    for (f, &marker_id) in marker_ids.iter().enumerate().take(k) {
        let marker = vocab.marker(marker_id);
        let payload = vocab.payload(rng.index(vocab.num_payloads()));
        let lo = 1 + f * (length - 8) / k;
        let hi = 1 + (f + 1) * (length - 8) / k - 2;
        plant_redundant(&mut planter, &mut tokens, lo + rng.index(hi - lo), marker, payload, &mut rng);
        facts.push((marker, payload));
    }
    let mut picks: Vec<usize> = (0..facts.len()).collect();
    rng.shuffle(&mut picks);
    picks.truncate(3);
    let markers: Vec<u32> = picks.iter().map(|&i| facts[i].0).collect();
    let positions = append_questions(&mut tokens, &markers);
    crate::haystack::append_suffix(vocab, &mut tokens, &mut rng);
    let questions = positions
        .into_iter()
        .zip(&picks)
        .map(|(position, &i)| Question {
            position,
            expected: facts[i].1,
        })
        .collect();
    Task {
        name: format!("synth_{seed:x}"),
        family: TaskFamily::SyntheticTasks,
        tokens,
        questions,
        answer_range: vocab.payload_range(),
    }
}

fn code_completion(vocab: &VocabLayout, length: usize, seed: u64) -> Task {
    let mut rng = DeterministicRng::new(seed);
    let mut tokens = haystack(vocab, length, &mut rng);
    // "Definitions" early (like imports/vars at the top of a file), "uses"
    // queried at the end — long def-use distances.
    let k = 4;
    let marker_ids = rng.distinct_indices(vocab.num_markers(), k);
    let mut planter = Planter::new();
    let mut facts = Vec::new();
    // Definitions occupy disjoint slots in the first quarter.
    let region = (length / 4).max(4 * k);
    let slot_width = region / k;
    for (f, &marker_id) in marker_ids.iter().enumerate().take(k) {
        let marker = vocab.marker(marker_id);
        let payload = vocab.payload(rng.index(vocab.num_payloads()));
        let lo = 1 + f * slot_width;
        let pos = lo + rng.index(slot_width.saturating_sub(2).max(1));
        plant_redundant(&mut planter, &mut tokens, pos.min(length - 8), marker, payload, &mut rng);
        facts.push((marker, payload));
    }
    let markers: Vec<u32> = facts.iter().map(|&(m, _)| m).collect();
    let positions = append_questions(&mut tokens, &markers);
    crate::haystack::append_suffix(vocab, &mut tokens, &mut rng);
    let questions = positions
        .into_iter()
        .zip(&facts)
        .map(|(position, &(_, payload))| Question {
            position,
            expected: payload,
        })
        .collect();
    Task {
        name: format!("code_{seed:x}"),
        family: TaskFamily::CodeCompletion,
        tokens,
        questions,
        answer_range: vocab.payload_range(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_baselines::FullAttention;
    use sa_model::{ModelConfig, SyntheticTransformer};

    #[test]
    fn suite_has_all_families() {
        let tasks = longbench_suite(512, 256, 2, 7);
        assert_eq!(tasks.len(), 12);
        for fam in TaskFamily::longbench_families() {
            assert_eq!(tasks.iter().filter(|t| t.family == fam).count(), 2);
        }
    }

    #[test]
    fn tasks_are_deterministic() {
        let a = longbench_suite(512, 128, 1, 9);
        let b = longbench_suite(512, 128, 1, 9);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.tokens, y.tokens);
            assert_eq!(x.questions, y.questions);
        }
        let c = longbench_suite(512, 128, 1, 10);
        assert_ne!(a[0].tokens, c[0].tokens);
    }

    #[test]
    fn full_attention_scores_high_on_suite() {
        let model = SyntheticTransformer::new(ModelConfig::tiny(41)).unwrap();
        let tasks = longbench_suite(model.config().vocab_size, 256, 1, 41);
        let mut total = 0.0;
        for t in &tasks {
            total += t.evaluate(&model, &FullAttention::new()).unwrap();
        }
        let mean = total / tasks.len() as f32;
        assert!(mean > 80.0, "full-attention mean {mean}");
    }

    #[test]
    fn questions_read_marker_positions() {
        let tasks = longbench_suite(512, 128, 1, 3);
        for t in &tasks {
            for q in &t.questions {
                // Question positions hold marker tokens, and expected
                // answers are payload-band tokens.
                assert!(t.answer_range.contains(&q.expected), "{}", t.name);
                assert!(q.position < t.tokens.len());
            }
        }
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn short_length_panics() {
        let _ = longbench_suite(512, 32, 1, 0);
    }
}
