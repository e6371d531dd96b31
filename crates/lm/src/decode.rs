//! Beam-search decoding: prefix-trie-constrained (Figure 6) and
//! unconstrained (the "- Prefix constrain" ablation of Table 3).

use crate::ngram::NgramLm;
use ultra_core::{EntityId, TokenId};
use ultra_text::PrefixTrie;

/// Beam-search parameters.
#[derive(Clone, Copy, Debug)]
pub struct BeamParams {
    /// Beam width (the paper uses 40).
    pub beam_size: usize,
    /// Maximum generated name length in tokens.
    pub max_len: usize,
}

impl Default for BeamParams {
    fn default() -> Self {
        Self {
            beam_size: 40,
            max_len: 6,
        }
    }
}

#[derive(Clone, Debug)]
struct Hyp {
    prefix: Vec<TokenId>,
    logp: f64,
}

/// Prefix-constrained beam search.
///
/// Starting from `prompt`, expands name prefixes along the candidate-entity
/// trie only ("for a certain node, its child nodes represent subsequent
/// tokens that are allowed to be generated"), scoring each step with the LM.
/// Every completed root-to-terminal path yields a candidate entity scored by
/// the geometric mean of its token probabilities. Returns the best
/// `beam_size` distinct entities, best first.
pub fn constrained_entity_beam(
    lm: &NgramLm,
    prompt: &[TokenId],
    trie: &PrefixTrie,
    params: BeamParams,
) -> Vec<(EntityId, f64)> {
    let mut beams = vec![Hyp {
        prefix: Vec::new(),
        logp: 0.0,
    }];
    let mut completed: Vec<(EntityId, f64)> = Vec::new();
    let mut ctx_buf: Vec<TokenId> = Vec::with_capacity(prompt.len() + params.max_len);

    for _step in 0..params.max_len {
        let mut next: Vec<Hyp> = Vec::new();
        for hyp in &beams {
            ctx_buf.clear();
            ctx_buf.extend_from_slice(prompt);
            ctx_buf.extend_from_slice(&hyp.prefix);
            for tok in trie.allowed_continuations(&hyp.prefix) {
                let lp = hyp.logp + lm.prob(&ctx_buf, tok).max(1e-300).ln();
                let mut prefix = hyp.prefix.clone();
                prefix.push(tok);
                if let Some(entity) = trie.complete(&prefix) {
                    let gm = (lp / prefix.len() as f64).exp();
                    completed.push((entity, gm));
                }
                next.push(Hyp { prefix, logp: lp });
            }
        }
        if next.is_empty() {
            break;
        }
        // All hypotheses at this step share the same length: raw log-prob
        // pruning is fair.
        next.sort_unstable_by(|a, b| b.logp.total_cmp(&a.logp));
        next.truncate(params.beam_size);
        beams = next;
    }

    dedup_best(completed, params.beam_size)
}

/// One unconstrained generation: a token sequence that may or may not name
/// a real entity.
#[derive(Clone, Debug)]
pub struct GeneratedSeq {
    /// Generated tokens (without the prompt).
    pub tokens: Vec<TokenId>,
    /// Geometric-mean probability.
    pub score: f64,
    /// The entity the sequence names, if it happens to be valid.
    pub entity: Option<EntityId>,
}

/// Unconstrained beam search over observed LM continuations.
///
/// Generation stops a hypothesis when it reaches `stop` (the list separator)
/// or `max_len`. Produced sequences are looked up in `trie`; sequences that
/// name no candidate entity are the hallucinations the prefix constraint
/// exists to prevent.
pub fn unconstrained_beam(
    lm: &NgramLm,
    prompt: &[TokenId],
    trie: &PrefixTrie,
    stop: TokenId,
    params: BeamParams,
) -> Vec<GeneratedSeq> {
    let mut beams = vec![Hyp {
        prefix: Vec::new(),
        logp: 0.0,
    }];
    let mut done: Vec<GeneratedSeq> = Vec::new();
    let mut ctx_buf: Vec<TokenId> = Vec::with_capacity(prompt.len() + params.max_len);

    for _step in 0..params.max_len {
        let mut next: Vec<Hyp> = Vec::new();
        for hyp in &beams {
            ctx_buf.clear();
            ctx_buf.extend_from_slice(prompt);
            ctx_buf.extend_from_slice(&hyp.prefix);
            // Expand along tokens the LM has actually seen in context;
            // cap the branching factor at the beam size.
            for (tok, _) in lm.observed_continuations(&ctx_buf, params.beam_size) {
                let lp = hyp.logp + lm.prob(&ctx_buf, tok).max(1e-300).ln();
                if tok == stop {
                    if !hyp.prefix.is_empty() {
                        let gm = (lp / (hyp.prefix.len() + 1) as f64).exp();
                        done.push(GeneratedSeq {
                            tokens: hyp.prefix.clone(),
                            score: gm,
                            entity: trie.complete(&hyp.prefix),
                        });
                    }
                    continue;
                }
                let mut prefix = hyp.prefix.clone();
                prefix.push(tok);
                next.push(Hyp { prefix, logp: lp });
            }
        }
        if next.is_empty() {
            break;
        }
        next.sort_unstable_by(|a, b| b.logp.total_cmp(&a.logp));
        next.truncate(params.beam_size);
        beams = next;
    }
    // Hypotheses that never hit the separator are emitted as-is.
    for hyp in beams {
        if !hyp.prefix.is_empty() {
            done.push(GeneratedSeq {
                score: (hyp.logp / hyp.prefix.len() as f64).exp(),
                entity: trie.complete(&hyp.prefix),
                tokens: hyp.prefix,
            });
        }
    }
    done.sort_unstable_by(|a, b| b.score.total_cmp(&a.score));
    // Deduplicate identical token sequences, keeping the best-scored.
    let mut seen = std::collections::HashSet::new();
    done.retain(|g| seen.insert(g.tokens.clone()));
    done.truncate(params.beam_size);
    done
}

/// Keeps the best score per entity, sorted descending, truncated to `k`.
fn dedup_best(mut scored: Vec<(EntityId, f64)>, k: usize) -> Vec<(EntityId, f64)> {
    scored.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let mut seen = std::collections::HashSet::new();
    scored.retain(|(e, _)| seen.insert(*e));
    scored.truncate(k);
    scored
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ngram::Smoothing;

    fn t(x: u32) -> TokenId {
        TokenId::new(x)
    }
    fn e(x: u32) -> EntityId {
        EntityId::new(x)
    }

    /// Lists "A , B , C" style over entities A=[10], B=[11,12], C=[13].
    fn list_docs() -> Vec<Vec<TokenId>> {
        let sep = t(1);
        vec![
            vec![t(10), sep, t(11), t(12), sep, t(13)],
            vec![t(13), sep, t(10), sep, t(11), t(12)],
            vec![t(10), sep, t(13), sep, t(11), t(12)],
            vec![t(11), t(12), sep, t(10), sep, t(13)],
        ]
    }

    fn lm_on(docs: &[Vec<TokenId>]) -> NgramLm {
        NgramLm::from_docs(
            3,
            Smoothing::AbsoluteDiscount(0.75),
            20,
            docs.iter().map(Vec::as_slice),
        )
    }

    fn trie() -> PrefixTrie {
        let mut trie = PrefixTrie::new();
        trie.insert(&[t(10)], e(0));
        trie.insert(&[t(11), t(12)], e(1));
        trie.insert(&[t(13)], e(2));
        trie
    }

    /// World: the list LM and the trie over A, B, C.
    fn setup() -> (NgramLm, PrefixTrie) {
        (lm_on(&list_docs()), trie())
    }

    #[test]
    fn constrained_beam_returns_only_valid_entities() {
        let (lm, trie) = setup();
        let prompt = [t(10), t(1)]; // "A ,"
        let out = constrained_entity_beam(&lm, &prompt, &trie, BeamParams::default());
        assert!(!out.is_empty());
        for (ent, score) in &out {
            assert!([e(0), e(1), e(2)].contains(ent));
            assert!(*score > 0.0 && *score <= 1.0);
        }
        // Scores descend.
        assert!(out.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn constrained_beam_covers_multi_token_names() {
        let (lm, trie) = setup();
        let prompt = [t(13), t(1)]; // "C ,"
        let out = constrained_entity_beam(&lm, &prompt, &trie, BeamParams::default());
        assert!(
            out.iter().any(|(ent, _)| *ent == e(1)),
            "two-token entity B reachable: {out:?}"
        );
    }

    #[test]
    fn constrained_beam_has_no_duplicates() {
        let (lm, trie) = setup();
        let out = constrained_entity_beam(&lm, &[t(10), t(1)], &trie, BeamParams::default());
        let mut ids: Vec<_> = out.iter().map(|(e, _)| *e).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), out.len());
    }

    #[test]
    fn unconstrained_beam_can_produce_invalid_sequences() {
        // Corrupt world: the list documents plus garbage continuations that
        // form no valid entity name.
        let mut docs = list_docs();
        docs.extend(vec![vec![t(10), t(1), t(12), t(11)]; 6]);
        let (lm, trie) = (lm_on(&docs), trie());
        let out = unconstrained_beam(&lm, &[t(10), t(1)], &trie, t(1), BeamParams::default());
        assert!(!out.is_empty());
        assert!(
            out.iter().any(|g| g.entity.is_none()),
            "expected at least one invalid generation: {out:?}"
        );
    }

    #[test]
    fn beams_are_deterministic() {
        let (lm, trie) = setup();
        let a = constrained_entity_beam(&lm, &[t(13), t(1)], &trie, BeamParams::default());
        let b = constrained_entity_beam(&lm, &[t(13), t(1)], &trie, BeamParams::default());
        assert_eq!(
            a.iter().map(|(e, _)| *e).collect::<Vec<_>>(),
            b.iter().map(|(e, _)| *e).collect::<Vec<_>>()
        );
    }

    #[test]
    fn empty_trie_yields_nothing() {
        let (lm, _) = setup();
        let empty = PrefixTrie::new();
        let out = constrained_entity_beam(&lm, &[t(10)], &empty, BeamParams::default());
        assert!(out.is_empty());
    }
}
