//! The hash-map n-gram LM the flat tables replaced, kept as a test oracle:
//! per-length maps from boxed context keys to per-context continuation
//! maps, trained incrementally. The flat [`NgramLm`](super::NgramLm) must
//! agree with it bit for bit on every query and byte for byte on
//! serialization.

use super::Smoothing;
use std::collections::{HashMap, HashSet};
use ultra_core::{ByteWriter, TokenId};

#[derive(Clone, Debug, Default)]
struct Ctx {
    total: u64,
    counts: HashMap<u32, u32>,
}

pub(super) struct HashLm {
    order: usize,
    smoothing: Smoothing,
    tables: Vec<HashMap<Box<[u32]>, Ctx>>,
    vocab_size: usize,
}

impl HashLm {
    pub(super) fn new(order: usize, smoothing: Smoothing, vocab_size: usize) -> Self {
        Self {
            order,
            smoothing,
            tables: vec![HashMap::new(); order],
            vocab_size,
        }
    }

    /// Accumulates counts; a second call continues from the first.
    pub(super) fn train<'a, I>(&mut self, docs: I)
    where
        I: IntoIterator<Item = &'a [TokenId]>,
    {
        for doc in docs {
            for i in 0..doc.len() {
                let w = doc[i].0;
                for k in 0..self.order.min(i + 1) {
                    let ctx: Box<[u32]> = doc[i - k..i].iter().map(|t| t.0).collect();
                    let slot = self.tables[k].entry(ctx).or_default();
                    slot.total += 1;
                    *slot.counts.entry(w).or_insert(0) += 1;
                }
            }
        }
    }

    pub(super) fn tokens_seen(&self) -> u64 {
        self.tables[0].get(&[][..] as &[u32]).map_or(0, |c| c.total)
    }

    pub(super) fn prob(&self, context: &[TokenId], next: TokenId) -> f64 {
        let keep = context.len().min(self.order - 1);
        let ctx: Vec<u32> = context[context.len() - keep..]
            .iter()
            .map(|t| t.0)
            .collect();
        self.prob_rec(&ctx, next.0)
    }

    fn prob_rec(&self, ctx: &[u32], w: u32) -> f64 {
        if ctx.is_empty() {
            let uni = self.tables[0].get(&[][..] as &[u32]);
            let (count, total) = match uni {
                Some(c) => (*c.counts.get(&w).unwrap_or(&0) as f64, c.total as f64),
                None => (0.0, 0.0),
            };
            return (count + 1.0) / (total + self.vocab_size as f64);
        }
        match self.tables[ctx.len()].get(ctx) {
            None => self.prob_rec(&ctx[1..], w),
            Some(c) => {
                let count = *c.counts.get(&w).unwrap_or(&0) as f64;
                let total = c.total as f64;
                let types = c.counts.len() as f64;
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

    pub(super) fn logprob_seq(&self, context: &[TokenId], seq: &[TokenId]) -> f64 {
        let mut ctx: Vec<TokenId> = context.to_vec();
        let mut lp = 0.0f64;
        for &t in seq {
            lp += self.prob(&ctx, t).max(1e-300).ln();
            ctx.push(t);
        }
        lp
    }

    pub(super) fn entity_score(&self, context: &[TokenId], entity_tokens: &[TokenId]) -> f64 {
        if entity_tokens.is_empty() {
            return 0.0;
        }
        (self.logprob_seq(context, entity_tokens) / entity_tokens.len() as f64).exp()
    }

    pub(super) fn observed_continuations(
        &self,
        context: &[TokenId],
        limit: usize,
    ) -> Vec<(TokenId, u32)> {
        let keep = context.len().min(self.order - 1);
        let full: Vec<u32> = context[context.len() - keep..]
            .iter()
            .map(|t| t.0)
            .collect();
        let mut out: Vec<(TokenId, u32)> = Vec::new();
        let mut seen = HashSet::new();
        for start in 0..=full.len() {
            if out.len() >= limit {
                break;
            }
            let ctx = &full[start..];
            if let Some(c) = self.tables[ctx.len()].get(ctx) {
                let mut level: Vec<(TokenId, u32)> = c
                    .counts
                    .iter()
                    .filter(|(&w, _)| !seen.contains(&w))
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

    /// The canonical layout: contexts in key order, continuations in token
    /// order.
    pub(super) fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u32(self.order as u32);
        match self.smoothing {
            Smoothing::WittenBell => {
                w.u8(0);
                w.f64(0.0);
            }
            Smoothing::AbsoluteDiscount(d) => {
                w.u8(1);
                w.f64(d);
            }
        }
        w.u64(self.vocab_size as u64);
        for table in &self.tables {
            w.u64(table.len() as u64);
            let mut keys: Vec<&[u32]> = table.keys().map(|k| k.as_ref()).collect();
            keys.sort_unstable();
            for key in keys {
                w.u32(key.len() as u32);
                for &tok in key {
                    w.u32(tok);
                }
                let ctx = &table[key];
                w.u64(ctx.total);
                w.u32(ctx.counts.len() as u32);
                let mut toks: Vec<u32> = ctx.counts.keys().copied().collect();
                toks.sort_unstable();
                for tok in toks {
                    w.u32(tok);
                    w.u32(ctx.counts[&tok]);
                }
            }
        }
        w.finish()
    }
}
