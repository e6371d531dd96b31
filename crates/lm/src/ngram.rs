//! Interpolated back-off n-gram language model.

use std::collections::HashMap;
use std::sync::OnceLock;
use ultra_core::{ByteReader, ByteWriter, TokenId, UltraError};

/// Smoothing family. Stands in for the LLM *family* axis of Figure 8:
/// Witten-Bell plays the weaker BLOOM, absolute discounting (the
/// interpolated-Kneser-Ney workhorse) plays LLaMA.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Smoothing {
    /// Witten-Bell interpolation: back-off mass proportional to the number
    /// of distinct continuation types.
    WittenBell,
    /// Absolute discounting with discount `d ∈ (0,1)`.
    AbsoluteDiscount(f64),
}

/// Continuation counts of every observed length-`k` context, as flat
/// arrays in the canonical (serialized) order: contexts lexicographic,
/// each context's continuations by ascending token. A lookup finds the
/// context through a small open-addressing index over `keys`, built on
/// the first lookup (a server that never queries the LM never pays for
/// it), then the token by binary search.
#[derive(Clone, Debug, Default)]
struct Table {
    /// Context length `k`.
    k: usize,
    /// `n·k` context tokens, context `i` at `keys[i·k..(i+1)·k]`.
    keys: Vec<u32>,
    /// Total continuation count per context.
    totals: Vec<u64>,
    /// `n+1` bounds: context `i`'s continuations are
    /// `toks[offsets[i]..offsets[i+1]]` (and the same range of `counts`).
    offsets: Vec<usize>,
    /// Continuation tokens, ascending within each context.
    toks: Vec<u32>,
    /// Continuation counts, parallel to `toks`.
    counts: Vec<u32>,
    /// Linear-probing index over the contexts, at most half full: a slot
    /// holds a context index + 1, 0 marks it empty. Its length is a power
    /// of two bounded by `2n`, so a hostile file cannot inflate it.
    slots: OnceLock<Vec<u32>>,
}

impl Table {
    fn new(k: usize) -> Self {
        Self {
            k,
            offsets: vec![0],
            ..Self::default()
        }
    }

    /// Number of contexts.
    #[inline]
    fn len(&self) -> usize {
        self.totals.len()
    }

    #[inline]
    fn key(&self, i: usize) -> &[u32] {
        &self.keys[i * self.k..(i + 1) * self.k]
    }

    /// Home slot of a key in an index of `cap` slots: a multiplicative
    /// hash, reduced by its high bits.
    fn home(key: impl Iterator<Item = u32>, cap: usize) -> usize {
        let h = key.fold(0u64, |h, t| {
            (h ^ u64::from(t)).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        });
        ((u128::from(h) * cap as u128) >> 64) as usize
    }

    /// Builds [`slots`](Self::slots) over the complete arrays.
    fn build_slots(&self) -> Vec<u32> {
        let cap = (2 * self.len()).next_power_of_two();
        let mut slots = vec![0u32; cap];
        for i in 0..self.len() {
            let mut s = Self::home(self.key(i).iter().copied(), cap);
            while slots[s] != 0 {
                s = (s + 1) & (cap - 1);
            }
            // Context counts are bounded by the file or corpus size, far
            // below `u32::MAX`.
            slots[s] = i as u32 + 1;
        }
        slots
    }

    /// Index of `ctx` (of length `k`), if observed.
    fn find(&self, ctx: &[TokenId]) -> Option<usize> {
        let slots = self.slots.get_or_init(|| self.build_slots());
        let cap = slots.len();
        let mut s = Self::home(ctx.iter().map(|t| t.0), cap);
        loop {
            let i = (*slots.get(s)? as usize).checked_sub(1)?;
            if self.key(i).iter().zip(ctx).all(|(a, b)| *a == b.0) {
                return Some(i);
            }
            s = (s + 1) & (cap - 1);
        }
    }

    /// Context `i`'s continuation tokens and their counts.
    #[inline]
    fn continuations(&self, i: usize) -> (&[u32], &[u32]) {
        let span = self.offsets[i]..self.offsets[i + 1];
        (&self.toks[span.clone()], &self.counts[span])
    }

    /// Count of `w` after context `i` (0 if never observed).
    fn count(&self, i: usize, w: u32) -> u32 {
        let (toks, counts) = self.continuations(i);
        toks.binary_search(&w).map_or(0, |j| counts[j])
    }

    /// Closes a context: its continuations are the `toks`/`counts`
    /// appended since the previous context was closed.
    fn push_context(&mut self, key: &[u32], total: u64) {
        self.keys.extend_from_slice(key);
        self.totals.push(total);
        self.offsets.push(self.toks.len());
    }

    /// Sorts training counts of `(k+1)`-grams (context then continuation)
    /// into the flat form, consuming the map.
    fn from_counts(k: usize, counts: HashMap<Box<[u32]>, u32>) -> Self {
        let mut grams: Vec<(Box<[u32]>, u32)> = counts.into_iter().collect();
        grams.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut table = Self::new(k);
        let mut total = 0u64;
        for (i, (gram, count)) in grams.iter().enumerate() {
            let (ctx, tok) = gram.split_at(k);
            table.toks.push(tok[0]);
            table.counts.push(*count);
            total += u64::from(*count);
            if grams.get(i + 1).is_none_or(|(next, _)| next[..k] != *ctx) {
                table.push_context(ctx, total);
                total = 0;
            }
        }
        table
    }
}

/// Interpolated back-off n-gram LM over [`TokenId`] streams.
///
/// `order = n` conditions on up to `n-1` previous tokens. The model is
/// immutable once built: [`from_docs`](Self::from_docs) counts every
/// training document in one pass (base and further pre-training documents
/// chained — counts are sums, so the result equals counting them in two
/// rounds, exactly like continued pre-training updates a real LM), and
/// [`from_bytes`](Self::from_bytes) decodes a persisted model.
#[derive(Clone, Debug)]
pub struct NgramLm {
    order: usize,
    smoothing: Smoothing,
    /// `tables[k]` holds the length-`k` contexts (`k = 0` is the unigram
    /// table with the empty context).
    tables: Vec<Table>,
    vocab_size: usize,
}

impl NgramLm {
    /// Trains an LM on `docs` (token sequences).
    ///
    /// `vocab_size` bounds the uniform floor of the unigram distribution;
    /// pass the interned vocabulary size. Counting goes through one
    /// temporary map per context length; each is sorted into its flat
    /// table and freed before the next.
    pub fn from_docs<'a, I>(order: usize, smoothing: Smoothing, vocab_size: usize, docs: I) -> Self
    where
        I: IntoIterator<Item = &'a [TokenId]>,
    {
        assert!(order >= 1, "order must be at least 1");
        assert!(vocab_size > 0, "vocabulary must be non-empty");
        if let Smoothing::AbsoluteDiscount(d) = smoothing {
            assert!((0.0..1.0).contains(&d), "discount must be in (0,1)");
        }
        // `grams[k]` counts (k+1)-grams: a length-k context, then the token.
        let mut grams: Vec<HashMap<Box<[u32]>, u32>> = vec![HashMap::new(); order];
        let mut gram: Vec<u32> = Vec::with_capacity(order);
        for doc in docs {
            for i in 0..doc.len() {
                for (k, counts) in grams.iter_mut().enumerate().take(i + 1) {
                    gram.clear();
                    gram.extend(doc[i - k..=i].iter().map(|t| t.0));
                    match counts.get_mut(gram.as_slice()) {
                        Some(c) => *c += 1,
                        None => {
                            counts.insert(gram.as_slice().into(), 1);
                        }
                    }
                }
            }
        }
        let tables = grams
            .into_iter()
            .enumerate()
            .map(|(k, counts)| Table::from_counts(k, counts))
            .collect();
        Self {
            order,
            smoothing,
            tables,
            vocab_size,
        }
    }

    /// Model order `n`.
    #[inline]
    pub fn order(&self) -> usize {
        self.order
    }

    /// Vocabulary size bounding the unigram floor.
    #[inline]
    pub fn vocab_size(&self) -> usize {
        self.vocab_size
    }

    /// Total observed unigram tokens (diagnostic).
    pub fn tokens_seen(&self) -> u64 {
        self.tables[0].totals.first().copied().unwrap_or(0)
    }

    /// `P(next | context)` under interpolated back-off smoothing.
    ///
    /// Uses at most the last `order - 1` tokens of `context`; unseen
    /// contexts back off transparently.
    pub fn prob(&self, context: &[TokenId], next: TokenId) -> f64 {
        let keep = context.len().min(self.order - 1);
        self.prob_rec(&context[context.len() - keep..], next.0)
    }

    fn prob_rec(&self, ctx: &[TokenId], w: u32) -> f64 {
        let table = &self.tables[ctx.len()];
        if ctx.is_empty() {
            // Add-one-smoothed unigram floor.
            let (count, total) = match table.find(ctx) {
                Some(i) => (table.count(i, w) as f64, table.totals[i] as f64),
                None => (0.0, 0.0),
            };
            return (count + 1.0) / (total + self.vocab_size as f64);
        }
        match table.find(ctx) {
            None => self.prob_rec(&ctx[1..], w),
            Some(i) => {
                let count = table.count(i, w) as f64;
                let total = table.totals[i] as f64;
                let types = table.continuations(i).0.len() as f64;
                let backoff = self.prob_rec(&ctx[1..], w);
                match self.smoothing {
                    Smoothing::WittenBell => (count + types * backoff) / (total + types),
                    Smoothing::AbsoluteDiscount(d) => {
                        (count - d).max(0.0) / total + (d * types / total) * backoff
                    }
                }
            }
        }
    }

    /// Log-probability of a token sequence continuing `context`.
    pub fn logprob_seq(&self, context: &[TokenId], seq: &[TokenId]) -> f64 {
        let mut ctx: Vec<TokenId> = context.to_vec();
        let mut lp = 0.0f64;
        for &t in seq {
            lp += self.prob(&ctx, t).max(1e-300).ln();
            ctx.push(t);
        }
        lp
    }

    /// Eq. 7 scoring primitive: the geometric-mean probability
    /// `P(e'|f(e))^(1/|e'|)` of generating `entity_tokens` after `context`.
    /// The geometric mean "balances the different token numbers of various
    /// entities".
    pub fn entity_score(&self, context: &[TokenId], entity_tokens: &[TokenId]) -> f64 {
        if entity_tokens.is_empty() {
            return 0.0;
        }
        (self.logprob_seq(context, entity_tokens) / entity_tokens.len() as f64).exp()
    }

    /// Candidate continuations of `context` for unconstrained beam search:
    /// tokens observed after progressively shorter context suffixes,
    /// accumulated (deduplicated) until `limit` candidates are gathered.
    ///
    /// Including the back-off levels matters: a transformer LM ranks its
    /// *whole* vocabulary at every step, so plausible-but-wrong
    /// continuations (shorter-context evidence) compete with exact
    /// continuations — that competition is where unconstrained decoding's
    /// invalid generations come from. Within a level, tokens sort by count
    /// (ties by id).
    pub fn observed_continuations(&self, context: &[TokenId], limit: usize) -> Vec<(TokenId, u32)> {
        let keep = context.len().min(self.order - 1);
        let full = &context[context.len() - keep..];
        let mut out: Vec<(TokenId, u32)> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for start in 0..=full.len() {
            if out.len() >= limit {
                break;
            }
            let ctx = &full[start..];
            let table = &self.tables[ctx.len()];
            if let Some(i) = table.find(ctx) {
                let (toks, counts) = table.continuations(i);
                let mut level: Vec<(TokenId, u32)> = toks
                    .iter()
                    .zip(counts)
                    .filter(|(w, _)| !seen.contains(*w))
                    .map(|(&w, &n)| (TokenId::new(w), n))
                    .collect();
                level.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
                for (t, n) in level.into_iter().take(limit - out.len()) {
                    seen.insert(t.0);
                    out.push((t, n));
                }
            }
        }
        out
    }

    /// Serializes the count tables in canonical form: for every table the
    /// contexts in lexicographic key order and every context's continuation
    /// counts in ascending token order — the order the tables are stored
    /// in, so this is one linear walk.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u32(self.order as u32);
        let (tag, discount) = match self.smoothing {
            Smoothing::WittenBell => (0, 0.0),
            Smoothing::AbsoluteDiscount(d) => (1, d),
        };
        w.u8(tag);
        w.f64(discount);
        w.u64(self.vocab_size as u64);
        for table in &self.tables {
            w.u64(table.len() as u64);
            for i in 0..table.len() {
                let key = table.key(i);
                w.u32(key.len() as u32);
                for &tok in key {
                    w.u32(tok);
                }
                w.u64(table.totals[i]);
                let (toks, counts) = table.continuations(i);
                w.u32(toks.len() as u32);
                for (&tok, &count) in toks.iter().zip(counts) {
                    w.u32(tok);
                    w.u32(count);
                }
            }
        }
        w.finish()
    }

    /// Strict inverse of [`to_bytes`](Self::to_bytes). Validates every
    /// invariant [`from_docs`](Self::from_docs) asserts (order ≥ 1,
    /// vocab > 0, discount in `(0,1)`) *before* construction, plus
    /// canonical ordering (strictly increasing contexts and tokens —
    /// rejecting duplicates and reorderings), context-length/table
    /// agreement, in-vocabulary context and continuation tokens, and
    /// count/total consistency, all as typed errors. The file order is the
    /// storage order, so decoding appends straight into the flat tables.
    pub fn from_bytes(bytes: &[u8]) -> ultra_core::Result<Self> {
        let corrupt = |msg: String| UltraError::Corrupt(format!("ngram-lm: {msg}"));
        let mut r = ByteReader::new(bytes, "ngram-lm");
        let order = r.u32()? as usize;
        if order == 0 || order > 16 {
            return Err(corrupt(format!("order {order} outside 1..=16")));
        }
        let smoothing = match (r.u8()?, r.f64()?) {
            (0, _) => Smoothing::WittenBell,
            (1, d) if d > 0.0 && d < 1.0 => Smoothing::AbsoluteDiscount(d),
            (1, d) => return Err(corrupt(format!("discount {d} outside (0,1)"))),
            (tag, _) => return Err(corrupt(format!("unknown smoothing tag {tag}"))),
        };
        let vocab_size = r.u64()?;
        if vocab_size == 0 || vocab_size > u32::MAX as u64 {
            return Err(corrupt(format!("vocab size {vocab_size} out of range")));
        }
        let mut tables: Vec<Table> = Vec::with_capacity(order);
        for k in 0..order {
            let declared = r.u64()?;
            // A context entry is at least key-len + total + count-len bytes.
            let n = r.check_count(declared, 16, "contexts")?;
            let mut table = Table::new(k);
            table.keys.reserve(n * k);
            table.totals.reserve(n);
            table.offsets.reserve(n);
            let mut key: Vec<u32> = Vec::with_capacity(k);
            for i in 0..n {
                let key_len = r.u32()? as usize;
                if key_len != k {
                    return Err(corrupt(format!(
                        "table {k} context has key length {key_len}"
                    )));
                }
                key.clear();
                for _ in 0..key_len {
                    key.push(r.u32()?);
                }
                if i > 0 && table.key(i - 1) >= key.as_slice() {
                    return Err(corrupt(format!(
                        "table {k} contexts not strictly increasing"
                    )));
                }
                if let Some(tok) = key.iter().find(|&&t| u64::from(t) >= vocab_size) {
                    return Err(corrupt(format!(
                        "table {k} context token {tok} outside vocabulary"
                    )));
                }
                let total = r.u64()?;
                let declared_types = u64::from(r.u32()?);
                let type_count = r.check_count(declared_types, 8, "continuations")?;
                table.toks.reserve(type_count);
                table.counts.reserve(type_count);
                let mut sum = 0u64;
                let mut prev_tok: Option<u32> = None;
                for _ in 0..type_count {
                    let tok = r.u32()?;
                    if prev_tok.is_some_and(|p| p >= tok) {
                        return Err(corrupt(format!(
                            "table {k} continuations not strictly increasing"
                        )));
                    }
                    prev_tok = Some(tok);
                    if u64::from(tok) >= vocab_size {
                        return Err(corrupt(format!("token {tok} outside vocabulary")));
                    }
                    let count = r.u32()?;
                    if count == 0 {
                        return Err(corrupt("zero continuation count".into()));
                    }
                    sum += u64::from(count);
                    table.toks.push(tok);
                    table.counts.push(count);
                }
                if sum != total {
                    return Err(corrupt(format!(
                        "context total {total} disagrees with summed counts {sum}"
                    )));
                }
                table.push_context(&key, total);
            }
            tables.push(table);
        }
        r.expect_end()?;
        Ok(Self {
            order,
            smoothing,
            tables,
            vocab_size: vocab_size as usize,
        })
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    fn t(x: u32) -> TokenId {
        TokenId::new(x)
    }

    fn toy_docs() -> Vec<Vec<TokenId>> {
        // Corpus: "1 2 3", "1 2 4", "1 2 3" over vocab of 8.
        vec![
            vec![t(1), t(2), t(3)],
            vec![t(1), t(2), t(4)],
            vec![t(1), t(2), t(3)],
        ]
    }

    fn toy_lm(smoothing: Smoothing) -> NgramLm {
        NgramLm::from_docs(3, smoothing, 8, toy_docs().iter().map(Vec::as_slice))
    }

    #[test]
    fn probabilities_sum_to_one_over_vocab() {
        for smoothing in [Smoothing::WittenBell, Smoothing::AbsoluteDiscount(0.75)] {
            let lm = toy_lm(smoothing);
            for ctx in [vec![], vec![t(1)], vec![t(1), t(2)], vec![t(9), t(9)]] {
                let sum: f64 = (0..8).map(|w| lm.prob(&ctx, t(w))).sum();
                assert!(
                    (sum - 1.0).abs() < 1e-9,
                    "{smoothing:?} ctx {ctx:?} sums to {sum}"
                );
            }
        }
    }

    #[test]
    fn frequent_continuation_is_more_probable() {
        let lm = toy_lm(Smoothing::WittenBell);
        let ctx = [t(1), t(2)];
        assert!(lm.prob(&ctx, t(3)) > lm.prob(&ctx, t(4)));
        assert!(lm.prob(&ctx, t(4)) > lm.prob(&ctx, t(7)));
    }

    #[test]
    fn unseen_context_backs_off_to_unigram() {
        let lm = toy_lm(Smoothing::AbsoluteDiscount(0.75));
        let p_backoff = lm.prob(&[t(9), t(9)], t(1));
        let p_unigram = lm.prob(&[], t(1));
        assert!((p_backoff - p_unigram).abs() < 1e-12);
    }

    #[test]
    fn incremental_training_shifts_the_distribution() {
        let base = toy_docs();
        let before = toy_lm(Smoothing::WittenBell).prob(&[t(1), t(2)], t(4));
        let extra: Vec<Vec<TokenId>> = vec![vec![t(1), t(2), t(4)]; 5];
        let lm = NgramLm::from_docs(
            3,
            Smoothing::WittenBell,
            8,
            base.iter().chain(&extra).map(Vec::as_slice),
        );
        let after = lm.prob(&[t(1), t(2)], t(4));
        assert!(after > before, "continued pretraining boosts new evidence");
    }

    #[test]
    fn entity_score_is_length_normalized() {
        let lm = toy_lm(Smoothing::WittenBell);
        let s1 = lm.entity_score(&[t(1)], &[t(2)]);
        let s2 = lm.entity_score(&[t(1)], &[t(2), t(3)]);
        // Geometric mean keeps multi-token scores on the same scale:
        // both are ≤ 1 and within a factor, not a power, of each other.
        assert!(s1 > 0.0 && s2 > 0.0);
        assert!(s2 < 1.0 && s1 < 1.0);
    }

    #[test]
    fn observed_continuations_rank_by_count() {
        let lm = toy_lm(Smoothing::WittenBell);
        let cont = lm.observed_continuations(&[t(1), t(2)], 10);
        assert_eq!(cont[0].0, t(3));
        assert_eq!(cont[0].1, 2);
        assert_eq!(cont[1].0, t(4));
    }

    #[test]
    fn logprob_seq_adds_stepwise_logs() {
        let lm = toy_lm(Smoothing::WittenBell);
        let lp = lm.logprob_seq(&[t(1)], &[t(2), t(3)]);
        let manual = lm.prob(&[t(1)], t(2)).ln() + lm.prob(&[t(1), t(2)], t(3)).ln();
        assert!((lp - manual).abs() < 1e-12);
    }

    #[test]
    fn tokens_seen_counts_training_volume() {
        let lm = toy_lm(Smoothing::WittenBell);
        assert_eq!(lm.tokens_seen(), 9);
    }

    #[test]
    #[should_panic(expected = "order must be")]
    fn zero_order_is_rejected() {
        NgramLm::from_docs(0, Smoothing::WittenBell, 10, std::iter::empty());
    }

    #[test]
    fn byte_round_trip_preserves_every_probability() {
        for smoothing in [Smoothing::WittenBell, Smoothing::AbsoluteDiscount(0.75)] {
            let lm = toy_lm(smoothing);
            let bytes = lm.to_bytes();
            let back = NgramLm::from_bytes(&bytes).expect("round trip");
            assert_eq!(back.to_bytes(), bytes, "re-serialization must be canonical");
            for ctx in [vec![], vec![t(1)], vec![t(1), t(2)], vec![t(9), t(9)]] {
                for w in 0..8 {
                    assert_eq!(
                        lm.prob(&ctx, t(w)).to_bits(),
                        back.prob(&ctx, t(w)).to_bits(),
                        "prob diverged for ctx {ctx:?} w {w}"
                    );
                }
            }
            assert_eq!(back.tokens_seen(), lm.tokens_seen());
        }
    }

    /// An order-2 Witten-Bell payload over vocabulary 4 whose one bigram
    /// context is `[ctx_tok]`; everything else is valid.
    fn bigram_payload(ctx_tok: u32) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u32(2);
        w.u8(0);
        w.f64(0.0);
        w.u64(4);
        // Unigram table: the empty context, tokens 1 and 2 once each.
        w.u64(1);
        w.u32(0);
        w.u64(2);
        w.u32(2);
        for tok in [1, 2] {
            w.u32(tok);
            w.u32(1);
        }
        // Bigram table: `[ctx_tok]` followed by token 2.
        w.u64(1);
        w.u32(1);
        w.u32(ctx_tok);
        w.u64(1);
        w.u32(1);
        w.u32(2);
        w.u32(1);
        w.finish()
    }

    #[test]
    fn corrupt_lm_payloads_are_typed_errors() {
        let bytes = toy_lm(Smoothing::WittenBell).to_bytes();
        // Truncations at every byte boundary.
        for cut in 0..bytes.len() {
            assert!(NgramLm::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
        // Trailing garbage.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(NgramLm::from_bytes(&padded).is_err());
        // Invalid header fields.
        let mut zero_order = bytes.clone();
        zero_order[0..4].copy_from_slice(&0u32.to_le_bytes());
        assert!(NgramLm::from_bytes(&zero_order).is_err());
        let mut bad_smoothing = bytes.clone();
        bad_smoothing[4] = 9;
        assert!(NgramLm::from_bytes(&bad_smoothing).is_err());
        let mut bad_discount = toy_lm(Smoothing::AbsoluteDiscount(0.75)).to_bytes();
        bad_discount[5..13].copy_from_slice(&1.5f64.to_bits().to_le_bytes());
        assert!(NgramLm::from_bytes(&bad_discount).is_err());
        // A context token outside the vocabulary, in an otherwise valid
        // payload (the in-vocabulary variant decodes).
        assert!(NgramLm::from_bytes(&bigram_payload(1)).is_ok());
        match NgramLm::from_bytes(&bigram_payload(4)) {
            Err(UltraError::Corrupt(msg)) => {
                assert!(msg.contains("context token 4 outside vocabulary"), "{msg}")
            }
            other => panic!("expected a Corrupt error, got {other:?}"),
        }
    }

    mod oracle {
        use super::super::reference::HashLm;
        use super::*;
        use proptest::prelude::*;

        fn tokens(raw: &[Vec<u32>]) -> Vec<Vec<TokenId>> {
            raw.iter()
                .map(|d| d.iter().map(|&x| t(x)).collect())
                .collect()
        }

        proptest! {
            /// The flat tables agree with the hash-map LM they replaced:
            /// same bytes, same bits on every query. The reference trains in
            /// two rounds (base, then further pre-training), the flat LM on
            /// the chained documents in one.
            #[test]
            fn flat_tables_match_the_hash_map_reference(
                base in prop::collection::vec(prop::collection::vec(0u32..10, 0..14), 0..8),
                extra in prop::collection::vec(prop::collection::vec(0u32..10, 0..14), 0..5),
                order in 1usize..6,
                discounted in 0u32..2,
                discount in 0.05f64..0.95,
                queries in prop::collection::vec(prop::collection::vec(0u32..12, 0..6), 1..8),
            ) {
                let smoothing = if discounted == 1 {
                    Smoothing::AbsoluteDiscount(discount)
                } else {
                    Smoothing::WittenBell
                };
                let (base, extra) = (tokens(&base), tokens(&extra));
                let vocab = 12;
                let mut reference = HashLm::new(order, smoothing, vocab);
                reference.train(base.iter().map(Vec::as_slice));
                reference.train(extra.iter().map(Vec::as_slice));
                let flat = NgramLm::from_docs(
                    order,
                    smoothing,
                    vocab,
                    base.iter().chain(&extra).map(Vec::as_slice),
                );
                let bytes = flat.to_bytes();
                prop_assert_eq!(&bytes, &reference.to_bytes());
                let decoded = NgramLm::from_bytes(&bytes).expect("canonical bytes decode");
                prop_assert_eq!(decoded.tokens_seen(), reference.tokens_seen());
                for lm in [&flat, &decoded] {
                    prop_assert_eq!(lm.tokens_seen(), reference.tokens_seen());
                    for q in tokens(&queries) {
                        for w in 0..vocab as u32 {
                            prop_assert_eq!(
                                lm.prob(&q, t(w)).to_bits(),
                                reference.prob(&q, t(w)).to_bits()
                            );
                        }
                        let (ctx, seq) = q.split_at(q.len() / 2);
                        prop_assert_eq!(
                            lm.logprob_seq(ctx, seq).to_bits(),
                            reference.logprob_seq(ctx, seq).to_bits()
                        );
                        prop_assert_eq!(
                            lm.entity_score(ctx, seq).to_bits(),
                            reference.entity_score(ctx, seq).to_bits()
                        );
                        for limit in [1, 3, 40] {
                            prop_assert_eq!(
                                lm.observed_continuations(&q, limit),
                                reference.observed_continuations(&q, limit)
                            );
                        }
                    }
                }
            }
        }
    }
}
