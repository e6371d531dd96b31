//! Property-based tests of the core data structures and metrics.

use proptest::prelude::*;
use std::collections::HashSet;
use ultrawiki::core::{segmented_rerank, EntityId, RankedList, TokenId};
use ultrawiki::eval::{average_precision_at, precision_at};
use ultrawiki::lm::{NgramLm, Smoothing};
use ultrawiki::text::{Bm25Index, Bm25Params, PrefixTrie, Tokenizer, Vocab};

fn entity_scores() -> impl Strategy<Value = Vec<(EntityId, f32)>> {
    prop::collection::vec((0u32..500, -100.0f32..100.0), 0..120)
        .prop_map(|v| v.into_iter().map(|(e, s)| (EntityId::new(e), s)).collect())
}

proptest! {
    #[test]
    fn ranked_list_is_sorted_and_unique(scores in entity_scores()) {
        let list = RankedList::from_scores(scores.clone());
        // Non-increasing scores.
        let entries = list.entries();
        prop_assert!(entries.windows(2).all(|w| w[0].1 >= w[1].1 || w[0].1.is_nan() || w[1].1.is_nan()));
        // Unique entities, all from the input.
        let mut seen = HashSet::new();
        for (e, _) in entries {
            prop_assert!(seen.insert(*e));
            prop_assert!(scores.iter().any(|(x, _)| x == e));
        }
    }

    #[test]
    fn truncate_and_without_preserve_order(scores in entity_scores(), k in 0usize..50) {
        let list = RankedList::from_scores(scores);
        let truncated = list.truncated(k);
        prop_assert!(truncated.len() <= k);
        let full: Vec<_> = list.entities().collect();
        let cut: Vec<_> = truncated.entities().collect();
        prop_assert_eq!(&full[..cut.len()], &cut[..]);
    }

    #[test]
    fn precision_and_ap_are_bounded(
        scores in entity_scores(),
        relevant in prop::collection::hash_set(0u32..500, 0..60),
        k in 1usize..120,
    ) {
        let list = RankedList::from_scores(scores);
        let relevant: HashSet<EntityId> = relevant.into_iter().map(EntityId::new).collect();
        let p = precision_at(&list, &relevant, k);
        let ap = average_precision_at(&list, &relevant, k);
        prop_assert!((0.0..=1.0).contains(&p), "P@K out of range: {p}");
        prop_assert!((0.0..=1.0 + 1e-12).contains(&ap), "AP@K out of range: {ap}");
        // AP of a perfect prefix equals 1.
        if !relevant.is_empty() {
            let perfect = RankedList::from_scores(
                relevant.iter().enumerate().map(|(i, &e)| (e, 100.0 - i as f32)).collect(),
            );
            let ap_perfect = average_precision_at(&perfect, &relevant, k);
            prop_assert!(ap_perfect > 1.0 - 1e-9);
        }
    }

    #[test]
    fn segmented_rerank_is_a_permutation(
        scores in entity_scores(),
        seg in 0usize..40,
        salt in 0u32..1000,
    ) {
        let list = RankedList::from_scores(scores);
        let reranked = segmented_rerank(&list, seg, |e| ((e.0.wrapping_mul(salt)) % 97) as f32);
        prop_assert_eq!(reranked.len(), list.len());
        let mut a: Vec<_> = list.entities().collect();
        let mut b: Vec<_> = reranked.entities().collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b, "rerank must permute, not add/remove");
    }

    #[test]
    fn segment_boundaries_are_respected(
        scores in entity_scores(),
        seg in 1usize..30,
    ) {
        // Every entity stays within its original segment.
        let list = RankedList::from_scores(scores);
        let reranked = segmented_rerank(&list, seg, |e| (e.0 % 13) as f32);
        for (old_rank, e) in list.entities().enumerate() {
            let new_rank = reranked.rank_of(e).unwrap();
            prop_assert_eq!(old_rank / seg, new_rank / seg, "entity crossed a segment");
        }
    }

    #[test]
    fn trie_completes_exactly_what_was_inserted(
        names in prop::collection::vec(prop::collection::vec(0u32..40, 1..5), 1..40)
    ) {
        let mut trie = PrefixTrie::new();
        let mut last: std::collections::HashMap<Vec<u32>, u32> = Default::default();
        for (i, name) in names.iter().enumerate() {
            let toks: Vec<TokenId> = name.iter().map(|&t| TokenId::new(t)).collect();
            trie.insert(&toks, EntityId::new(i as u32));
            last.insert(name.clone(), i as u32);
        }
        for (name, id) in &last {
            let toks: Vec<TokenId> = name.iter().map(|&t| TokenId::new(t)).collect();
            prop_assert_eq!(trie.complete(&toks), Some(EntityId::new(*id)));
            // Every proper prefix is a valid path.
            for cut in 1..toks.len() {
                prop_assert!(trie.is_valid_prefix(&toks[..cut]));
            }
        }
        prop_assert_eq!(trie.len(), last.len());
    }

    #[test]
    fn ngram_distributions_sum_to_one(
        docs in prop::collection::vec(prop::collection::vec(0u32..12, 1..15), 1..10),
        order in 1usize..4,
        ctx in prop::collection::vec(0u32..12, 0..4),
        discount in 0.1f64..0.9,
    ) {
        for smoothing in [Smoothing::WittenBell, Smoothing::AbsoluteDiscount(discount)] {
            let docs_t: Vec<Vec<TokenId>> = docs
                .iter()
                .map(|d| d.iter().map(|&t| TokenId::new(t)).collect())
                .collect();
            let lm = NgramLm::from_docs(order, smoothing, 12, docs_t.iter().map(Vec::as_slice));
            let ctx_t: Vec<TokenId> = ctx.iter().map(|&t| TokenId::new(t)).collect();
            let sum: f64 = (0..12).map(|w| lm.prob(&ctx_t, TokenId::new(w))).sum();
            prop_assert!((sum - 1.0).abs() < 1e-6, "{smoothing:?}: sums to {sum}");
        }
    }

    #[test]
    fn bm25_scores_are_finite_and_ranked(
        docs in prop::collection::vec(prop::collection::vec(0u32..30, 1..12), 1..25),
        query in prop::collection::vec(0u32..30, 1..6),
    ) {
        let docs_t: Vec<Vec<TokenId>> = docs
            .iter()
            .map(|d| d.iter().map(|&t| TokenId::new(t)).collect())
            .collect();
        let index = Bm25Index::build(docs_t.iter().map(Vec::as_slice), Bm25Params::default());
        let q: Vec<TokenId> = query.iter().map(|&t| TokenId::new(t)).collect();
        let hits = index.search(&q, 10);
        prop_assert!(hits.len() <= 10);
        prop_assert!(hits.iter().all(|(d, s)| *d < docs.len() && s.is_finite() && *s >= 0.0));
        prop_assert!(hits.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn tokenizer_intern_then_encode_round_trips(words in prop::collection::vec("[a-z]{1,8}", 1..12)) {
        let text = words.join(" ");
        let mut vocab = Vocab::new();
        let interned = Tokenizer::encode_interning(&mut vocab, &text);
        let frozen = Tokenizer::encode(&vocab, &text);
        prop_assert_eq!(interned, frozen, "frozen encode must agree after interning");
    }
}
