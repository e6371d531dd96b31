//! Linear layer and two-layer MLP with explicit backward passes.

use crate::matrix::Matrix;
use crate::optim::GradApply;
use ultra_core::rng::UltraRng;

/// Elementwise activation functions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activation {
    /// Identity.
    None,
    /// Hyperbolic tangent (the encoder's nonlinearity).
    Tanh,
    /// Rectified linear unit (the projection head's nonlinearity).
    Relu,
}

impl Activation {
    #[inline]
    fn forward(self, x: f32) -> f32 {
        match self {
            Activation::None => x,
            Activation::Tanh => x.tanh(),
            Activation::Relu => x.max(0.0),
        }
    }

    /// Derivative expressed in terms of the *output* `y = forward(x)`.
    #[inline]
    fn backward_from_output(self, y: f32) -> f32 {
        match self {
            Activation::None => 1.0,
            Activation::Tanh => 1.0 - y * y,
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }
}

/// Fully-connected layer `y = act(W x + b)` with gradient accumulation.
#[derive(Clone, Debug)]
pub struct Linear {
    w: Matrix,
    b: Vec<f32>,
    gw: Matrix,
    gb: Vec<f32>,
    act: Activation,
    use_bias: bool,
}

impl Linear {
    /// Xavier-initialised layer mapping `in_dim → out_dim`.
    pub fn new(in_dim: usize, out_dim: usize, act: Activation, rng: &mut UltraRng) -> Self {
        Self {
            w: Matrix::xavier(out_dim, in_dim, rng),
            b: vec![0.0; out_dim],
            gw: Matrix::zeros(out_dim, in_dim),
            gb: vec![0.0; out_dim],
            act,
            use_bias: true,
        }
    }

    /// Bias-free layer. Contrastive projection heads use this: under an
    /// l2-normalized similarity loss a trainable output bias is a flat
    /// direction — growing it raises *every* pairwise cosine equally, so
    /// the optimizer can drift into representation collapse without
    /// resistance from the loss.
    pub fn new_no_bias(in_dim: usize, out_dim: usize, act: Activation, rng: &mut UltraRng) -> Self {
        let mut l = Self::new(in_dim, out_dim, act, rng);
        l.use_bias = false;
        l
    }

    /// Input dimensionality.
    #[inline]
    pub fn in_dim(&self) -> usize {
        self.w.cols()
    }

    /// Output dimensionality.
    #[inline]
    pub fn out_dim(&self) -> usize {
        self.w.rows()
    }

    /// Forward pass.
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        let mut y = self.w.matvec(x);
        if self.use_bias {
            for (yi, bi) in y.iter_mut().zip(&self.b) {
                *yi = self.act.forward(*yi + bi);
            }
        } else {
            for yi in y.iter_mut() {
                *yi = self.act.forward(*yi);
            }
        }
        y
    }

    /// Backward pass into an external gradient buffer: accumulates
    /// weight/bias gradients into `g` and returns the gradient w.r.t. the
    /// input. `x` is the input given to [`forward`](Self::forward), `y`
    /// its output, `dy` the loss gradient w.r.t. `y`.
    ///
    /// `self` stays frozen — this is what lets per-sample gradients be
    /// computed in parallel against one parameter snapshot and merged in a
    /// fixed order afterwards (see `ultra-par`).
    pub fn backward_into(&self, x: &[f32], y: &[f32], dy: &[f32], g: &mut LinearGrad) -> Vec<f32> {
        // Pre-activation gradient.
        let dz: Vec<f32> = dy
            .iter()
            .zip(y)
            .map(|(&d, &yv)| d * self.act.backward_from_output(yv))
            .collect();
        g.gw.add_outer(1.0, &dz, x);
        if self.use_bias {
            for (gb, d) in g.gb.iter_mut().zip(&dz) {
                *gb += d;
            }
        }
        self.w.matvec_t(&dz)
    }

    /// Batched forward pass against a pre-transposed weight matrix
    /// (`wt = wᵀ`, kept fresh by the caller): row `r` of `y` becomes
    /// `forward(x.row(r))`. The GEMM runs in throughput-bound sweep form
    /// ([`Matrix::matmat_nt_pret_into`]) with `lanes` as the sweep's
    /// partial-sum scratch. Bit-identical to the per-row
    /// [`forward`](Self::forward) — the sweep reproduces `dot_unrolled`'s
    /// exact summand grouping — and the bias/activation epilogue is the
    /// same expression. `y` must be pre-shaped `(x.rows × out_dim)`.
    // ultra-lint: hot
    pub fn forward_batch_pret(&self, x: &Matrix, wt: &Matrix, y: &mut Matrix, lanes: &mut Matrix) {
        debug_assert_eq!(wt.rows(), self.w.cols(), "forward_batch_pret: stale wt");
        debug_assert_eq!(wt.cols(), self.w.rows(), "forward_batch_pret: stale wt");
        x.matmat_nt_pret_into(wt, y, lanes);
        for r in 0..y.rows() {
            let row = y.row_mut(r);
            if self.use_bias {
                for (yi, bi) in row.iter_mut().zip(&self.b) {
                    *yi = self.act.forward(*yi + bi);
                }
            } else {
                for yi in row.iter_mut() {
                    *yi = self.act.forward(*yi);
                }
            }
        }
    }

    /// Backward over a block of rows `r0..r1` of batched forward buffers
    /// (`x` inputs, `y` outputs, `dy` output gradients, all row-aligned):
    /// per row exactly the [`backward_into`](Self::backward_into) math,
    /// against caller-owned scratch (`dz` pre-activation gradients, `dx`
    /// input gradients), with each weight/gradient matrix streamed once per
    /// *block* instead of once per row. The per-row backward is
    /// bandwidth-bound — `gw` and `w` together far exceed L1 — so a
    /// four-row block cuts that traffic ~4×.
    ///
    /// Bit-compatibility is structural, not approximate: every
    /// `gw[i][j]` (and `gb[i]`) receives exactly the summands of the
    /// per-row kernel in ascending-`r` order, every `dx[r][j]` its
    /// summands in ascending-`i` order, and the zero-skips mirror
    /// [`Matrix::add_outer`] / [`Matrix::matvec_t_into`] — so a block is
    /// bit-identical to `r1 - r0` sequential `backward_into` calls.
    // ultra-lint: hot
    #[allow(clippy::too_many_arguments)]
    pub fn backward_rows_into_buf(
        &self,
        x: &Matrix,
        y: &Matrix,
        dy: &Matrix,
        r0: usize,
        r1: usize,
        g: &mut LinearGrad,
        dz: &mut Matrix,
        dx: &mut Matrix,
    ) {
        // Pre-activation gradients, elementwise per row.
        for r in r0..r1 {
            for ((dzi, &d), &yv) in dz.row_mut(r).iter_mut().zip(dy.row(r)).zip(y.row(r)) {
                *dzi = d * self.act.backward_from_output(yv);
            }
        }
        // `gw += dzᵀ·x` / `gb += Σ dz`: stream each `gw` row once for the
        // whole block; per element the `r` fold order matches `add_outer`
        // called row by row.
        for i in 0..self.w.rows() {
            let gwrow = g.gw.row_mut(i);
            for r in r0..r1 {
                let c = dz.row(r)[i];
                if self.use_bias {
                    g.gb[i] += c;
                }
                if c == 0.0 {
                    continue; // the `add_outer` zero-skip
                }
                for (w, &xv) in gwrow.iter_mut().zip(x.row(r)) {
                    *w += c * xv;
                }
            }
        }
        // `dx[r] = wᵀ·dz[r]`: stream each weight row once for the block;
        // per element the `i` fold order matches `matvec_t_into`.
        for r in r0..r1 {
            dx.row_mut(r).iter_mut().for_each(|v| *v = 0.0);
        }
        for i in 0..self.w.rows() {
            let wrow = self.w.row(i);
            for r in r0..r1 {
                let c = dz.row(r)[i];
                if c == 0.0 {
                    continue; // the `matvec_t_into` zero-skip
                }
                for (v, &wv) in dx.row_mut(r).iter_mut().zip(wrow) {
                    *v += c * wv;
                }
            }
        }
    }

    /// Adds an externally accumulated gradient buffer into the layer's
    /// internal one, readying an optimizer step.
    pub fn accumulate(&mut self, g: &LinearGrad) {
        self.gw.add_assign(&g.gw);
        for (a, &b) in self.gb.iter_mut().zip(&g.gb) {
            *a += b;
        }
    }

    /// Direct read access to the weight matrix (used by read-out heads).
    #[inline]
    pub fn weights(&self) -> &Matrix {
        &self.w
    }
}

/// Detached gradient buffer for a [`Linear`] layer.
#[derive(Clone, Debug)]
pub struct LinearGrad {
    gw: Matrix,
    gb: Vec<f32>,
}

impl LinearGrad {
    /// A zeroed buffer shaped like `layer`'s parameters.
    pub fn zeros_like(layer: &Linear) -> Self {
        Self {
            gw: Matrix::zeros(layer.out_dim(), layer.in_dim()),
            gb: vec![0.0; layer.out_dim()],
        }
    }

    /// A zero-capacity buffer to be shaped later by
    /// [`ensure_like`](Self::ensure_like) — lets workspaces be `Default`
    /// without knowing layer shapes up front.
    pub fn empty() -> Self {
        Self {
            gw: Matrix::zeros(0, 0),
            gb: Vec::new(),
        }
    }

    /// Reshapes to match `layer` if needed (reallocating only on a shape
    /// change); contents are unspecified afterwards — call
    /// [`reset`](Self::reset) before accumulating.
    pub fn ensure_like(&mut self, layer: &Linear) {
        if self.gw.rows() != layer.out_dim() || self.gw.cols() != layer.in_dim() {
            self.gw = Matrix::zeros(layer.out_dim(), layer.in_dim());
            self.gb = vec![0.0; layer.out_dim()];
        }
    }

    /// Zeroes the buffer in place for reuse across steps.
    pub fn reset(&mut self) {
        self.gw.fill_zero();
        self.gb.iter_mut().for_each(|g| *g = 0.0);
    }

    /// Elementwise merge (`self += other`). Merge order is the caller's
    /// contract: deterministic pipelines merge per-sample buffers in sample
    /// order.
    pub fn add_assign(&mut self, other: &LinearGrad) {
        self.gw.add_assign(&other.gw);
        for (a, &b) in self.gb.iter_mut().zip(&other.gb) {
            *a += b;
        }
    }
}

impl GradApply for Linear {
    fn visit(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        f(self.w.as_mut_slice(), self.gw.as_mut_slice());
        f(&mut self.b, &mut self.gb);
    }

    fn zero_grads(&mut self) {
        self.gw.fill_zero();
        self.gb.iter_mut().for_each(|g| *g = 0.0);
    }
}

/// Two-layer MLP `Linear → act → Linear` (the paper's classification and
/// contrastive mapping heads are both "MLP"s).
#[derive(Clone, Debug)]
pub struct Mlp {
    /// Hidden layer (with activation).
    pub hidden: Linear,
    /// Output layer (no activation; callers add softmax / l2-norm).
    pub out: Linear,
}

impl Mlp {
    /// Builds `in_dim → hidden_dim → out_dim` with the given hidden
    /// activation.
    pub fn new(
        in_dim: usize,
        hidden_dim: usize,
        out_dim: usize,
        act: Activation,
        rng: &mut UltraRng,
    ) -> Self {
        Self {
            hidden: Linear::new(in_dim, hidden_dim, act, rng),
            out: Linear::new(hidden_dim, out_dim, Activation::None, rng),
        }
    }

    /// Projection-head variant: bias-free throughout (see
    /// [`Linear::new_no_bias`]) so the l2-normalized contrastive space has
    /// no loss-flat collapse direction.
    pub fn new_projection(
        in_dim: usize,
        hidden_dim: usize,
        out_dim: usize,
        act: Activation,
        rng: &mut UltraRng,
    ) -> Self {
        Self {
            hidden: Linear::new_no_bias(in_dim, hidden_dim, act, rng),
            out: Linear::new_no_bias(hidden_dim, out_dim, Activation::None, rng),
        }
    }

    /// Forward pass returning `(hidden activation, output)`; the hidden
    /// activation must be fed back to [`backward_into`](Self::backward_into).
    pub fn forward(&self, x: &[f32]) -> (Vec<f32>, Vec<f32>) {
        let h = self.hidden.forward(x);
        let y = self.out.forward(&h);
        (h, y)
    }

    /// Batched forward pass over a row matrix of examples through a
    /// transposed weight snapshot (see [`MlpT`]): two sweep-form GEMMs
    /// instead of `2B` matvecs. `h` must be pre-shaped
    /// `(x.rows × hidden_dim)` and `y` `(x.rows × out_dim)`; row `r` of
    /// `(h, y)` is bit-identical to `forward(x.row(r))` as long as `t` is
    /// fresh — refresh the snapshot after every parameter update.
    // ultra-lint: hot
    pub fn forward_batch_pret(
        &self,
        t: &MlpT,
        x: &Matrix,
        h: &mut Matrix,
        y: &mut Matrix,
        lanes: &mut Matrix,
    ) {
        self.hidden.forward_batch_pret(x, &t.hidden_t, h, lanes);
        self.out.forward_batch_pret(h, &t.out_t, y, lanes);
    }

    /// Block-of-rows variant of [`backward_into`](Self::backward_into)
    /// over batched forward buffers (`x` inputs, `h` hidden activations,
    /// `y` outputs, `dy` output gradients, all row-aligned): both layers
    /// run their [`Linear::backward_rows_into_buf`] sweep over rows
    /// `r0..r1`, so weight and gradient matrices stream once per block.
    /// Bit-identical to per-row calls — see the layer kernel's contract.
    #[allow(clippy::too_many_arguments)]
    pub fn backward_rows_into_buf(
        &self,
        x: &Matrix,
        h: &Matrix,
        y: &Matrix,
        dy: &Matrix,
        r0: usize,
        r1: usize,
        g: &mut MlpGrad,
        dz_out: &mut Matrix,
        dh: &mut Matrix,
        dz_hidden: &mut Matrix,
        dx: &mut Matrix,
    ) {
        self.out
            .backward_rows_into_buf(h, y, dy, r0, r1, &mut g.out, dz_out, dh);
        self.hidden
            .backward_rows_into_buf(x, h, dh, r0, r1, &mut g.hidden, dz_hidden, dx);
    }

    /// Backward pass into an external [`MlpGrad`]; returns the gradient
    /// w.r.t. the input.
    pub fn backward_into(
        &self,
        x: &[f32],
        h: &[f32],
        y: &[f32],
        dy: &[f32],
        g: &mut MlpGrad,
    ) -> Vec<f32> {
        let dh = self.out.backward_into(h, y, dy, &mut g.out);
        self.hidden.backward_into(x, h, &dh, &mut g.hidden)
    }

    /// Adds an external gradient buffer into the internal one.
    pub fn accumulate(&mut self, g: &MlpGrad) {
        self.hidden.accumulate(&g.hidden);
        self.out.accumulate(&g.out);
    }
}

/// Transposed snapshot of an [`Mlp`]'s weight matrices, the right-hand
/// operands of the sweep-form batched forward
/// ([`Mlp::forward_batch_pret`]). The snapshot is a pure function of the
/// parameters and must be [`refresh`](Self::refresh)ed after every
/// optimizer step; transposing twice per step (~`2·d²` copies) is noise
/// next to the GEMM work it unlocks.
#[derive(Clone, Debug)]
pub struct MlpT {
    /// `hidden.wᵀ` (`in_dim × hidden_dim`).
    pub hidden_t: Matrix,
    /// `out.wᵀ` (`hidden_dim × out_dim`).
    pub out_t: Matrix,
}

impl Default for MlpT {
    fn default() -> Self {
        Self {
            hidden_t: Matrix::zeros(0, 0),
            out_t: Matrix::zeros(0, 0),
        }
    }
}

impl MlpT {
    /// An empty snapshot; [`refresh`](Self::refresh) shapes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Re-transposes both weight matrices from `mlp` (allocating only on
    /// first use or shape change).
    pub fn refresh(&mut self, mlp: &Mlp) {
        mlp.hidden.w.transpose_into(&mut self.hidden_t);
        mlp.out.w.transpose_into(&mut self.out_t);
    }
}

/// Detached gradient buffer for an [`Mlp`].
#[derive(Clone, Debug)]
pub struct MlpGrad {
    hidden: LinearGrad,
    out: LinearGrad,
}

impl MlpGrad {
    /// A zeroed buffer shaped like `mlp`'s parameters.
    pub fn zeros_like(mlp: &Mlp) -> Self {
        Self {
            hidden: LinearGrad::zeros_like(&mlp.hidden),
            out: LinearGrad::zeros_like(&mlp.out),
        }
    }

    /// A zero-capacity buffer to be shaped later by
    /// [`ensure_like`](Self::ensure_like).
    pub fn empty() -> Self {
        Self {
            hidden: LinearGrad::empty(),
            out: LinearGrad::empty(),
        }
    }

    /// Reshapes to match `mlp` if needed; contents are unspecified — call
    /// [`reset`](Self::reset) before accumulating.
    pub fn ensure_like(&mut self, mlp: &Mlp) {
        self.hidden.ensure_like(&mlp.hidden);
        self.out.ensure_like(&mlp.out);
    }

    /// Zeroes the buffer in place for reuse across steps.
    pub fn reset(&mut self) {
        self.hidden.reset();
        self.out.reset();
    }

    /// Elementwise merge (`self += other`), in the caller's order.
    pub fn add_assign(&mut self, other: &MlpGrad) {
        self.hidden.add_assign(&other.hidden);
        self.out.add_assign(&other.out);
    }
}

impl Default for MlpGrad {
    fn default() -> Self {
        Self::empty()
    }
}

impl GradApply for Mlp {
    fn visit(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        self.hidden.visit(f);
        self.out.visit(f);
    }

    fn zero_grads(&mut self) {
        self.hidden.zero_grads();
        self.out.zero_grads();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Sgd;
    use ultra_core::derive_rng;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    /// Numerically checks dL/dx for L = sum(y) through a tanh linear layer.
    #[test]
    fn linear_backward_matches_finite_differences() {
        let mut rng = derive_rng(3, 0);
        let layer = Linear::new(3, 2, Activation::Tanh, &mut rng);
        let x = vec![0.3f32, -0.7, 0.2];
        let y = layer.forward(&x);
        let dy = vec![1.0f32; 2];
        let mut g = LinearGrad::zeros_like(&layer);
        let dx = layer.backward_into(&x, &y, &dy, &mut g);
        let eps = 1e-3f32;
        for i in 0..3 {
            let mut xp = x.clone();
            xp[i] += eps;
            let mut xm = x.clone();
            xm[i] -= eps;
            let fp: f32 = layer.forward(&xp).iter().sum();
            let fm: f32 = layer.forward(&xm).iter().sum();
            let fd = (fp - fm) / (2.0 * eps);
            assert!((fd - dx[i]).abs() < 1e-2, "dx[{i}]: fd {fd} vs {}", dx[i]);
        }
    }

    /// The block-of-rows backward must be bit-identical to per-row
    /// `backward_into` calls — for every block size, for a biased tanh
    /// layer and a bias-free identity layer, across `gw`, `gb`, and `dx`.
    #[test]
    fn backward_rows_into_buf_is_bit_identical_to_per_row_backward_into() {
        let mut rng = derive_rng(11, 0);
        for (use_bias, act) in [(true, Activation::Tanh), (false, Activation::None)] {
            let layer = if use_bias {
                Linear::new(5, 4, act, &mut rng)
            } else {
                Linear::new_no_bias(5, 4, act, &mut rng)
            };
            let rows = 7usize;
            let mut x = Matrix::zeros(rows, 5);
            for r in 0..rows {
                for c in 0..5 {
                    x.row_mut(r)[c] = ((r * 5 + c) as f32 * 0.37).sin();
                }
            }
            let mut y = Matrix::zeros(rows, 4);
            let mut dy = Matrix::zeros(rows, 4);
            for r in 0..rows {
                let out = layer.forward(x.row(r));
                y.row_mut(r).copy_from_slice(&out);
                for c in 0..4 {
                    // Include an exact zero to exercise the zero-skips.
                    dy.row_mut(r)[c] = if (r + c) % 5 == 0 {
                        0.0
                    } else {
                        ((r * 4 + c) as f32 * 0.71).cos()
                    };
                }
            }

            // Reference: the per-row kernel, rows in ascending order.
            let mut g_ref = LinearGrad::zeros_like(&layer);
            let mut dx_ref = Matrix::zeros(rows, 5);
            for r in 0..rows {
                let dx = layer.backward_into(x.row(r), y.row(r), dy.row(r), &mut g_ref);
                dx_ref.row_mut(r).copy_from_slice(&dx);
            }

            for block in 1..=rows {
                let mut g = LinearGrad::zeros_like(&layer);
                let mut dz = Matrix::zeros(rows, 4);
                let mut dx = Matrix::zeros(rows, 5);
                let mut r0 = 0;
                while r0 < rows {
                    let r1 = (r0 + block).min(rows);
                    layer.backward_rows_into_buf(&x, &y, &dy, r0, r1, &mut g, &mut dz, &mut dx);
                    r0 = r1;
                }
                assert_eq!(
                    bits(g.gw.as_slice()),
                    bits(g_ref.gw.as_slice()),
                    "gw, block={block}"
                );
                assert_eq!(bits(&g.gb), bits(&g_ref.gb), "gb, block={block}");
                assert_eq!(
                    bits(dx.as_slice()),
                    bits(dx_ref.as_slice()),
                    "dx, block={block}"
                );
            }
        }
    }

    /// The sweep-form batched forward through a transposed snapshot must
    /// be bit-identical to the per-row forward — for the biased tanh MLP
    /// (the only exercise of the pret path's bias epilogue: the projection
    /// head is bias-free) and for the bias-free projection variant, with
    /// dirty lane scratch.
    #[test]
    fn forward_batch_pret_matches_per_row_forward_bitwise() {
        let mut rng = derive_rng(21, 0);
        for mlp in [
            Mlp::new(6, 9, 5, Activation::Tanh, &mut rng),
            Mlp::new_projection(6, 9, 5, Activation::Relu, &mut rng),
        ] {
            let mut t = MlpT::new();
            t.refresh(&mlp);
            let mut x = Matrix::zeros(23, 6);
            for r in 0..23 {
                for c in 0..6 {
                    x.row_mut(r)[c] = ((r * 7 + c) as f32 * 0.31).sin();
                }
            }
            let mut h = Matrix::zeros(23, 9);
            let mut y = Matrix::zeros(23, 5);
            let mut lanes = Matrix::from_vec(5, 9, vec![7.5; 45]);
            mlp.forward_batch_pret(&t, &x, &mut h, &mut y, &mut lanes);
            for r in 0..23 {
                let (hr, yr) = mlp.forward(x.row(r));
                assert_eq!(bits(h.row(r)), bits(&hr), "hidden row {r}");
                assert_eq!(bits(y.row(r)), bits(&yr), "output row {r}");
            }
        }
    }

    /// One SGD step on a tiny regression problem must reduce the loss.
    #[test]
    fn sgd_step_reduces_squared_error() {
        let mut rng = derive_rng(4, 0);
        let mut layer = Linear::new(2, 1, Activation::None, &mut rng);
        let x = vec![1.0f32, -1.0];
        let target = 0.75f32;
        let loss = |l: &Linear| {
            let y = l.forward(&x)[0];
            (y - target) * (y - target)
        };
        let before = loss(&layer);
        let y = layer.forward(&x);
        let dy = vec![2.0 * (y[0] - target)];
        let mut g = LinearGrad::zeros_like(&layer);
        layer.backward_into(&x, &y, &dy, &mut g);
        layer.accumulate(&g);
        Sgd::new(0.05).step(&mut layer);
        assert!(loss(&layer) < before);
    }

    #[test]
    fn mlp_shapes_compose() {
        let mut rng = derive_rng(5, 0);
        let mlp = Mlp::new(4, 8, 3, Activation::Relu, &mut rng);
        let (h, y) = mlp.forward(&[0.1, 0.2, 0.3, 0.4]);
        assert_eq!(h.len(), 8);
        assert_eq!(y.len(), 3);
    }

    #[test]
    fn grad_buffers_merge_in_caller_order() {
        let mut rng = derive_rng(12, 0);
        let layer = Linear::new(2, 2, Activation::None, &mut rng);
        let mut g1 = LinearGrad::zeros_like(&layer);
        let mut g2 = LinearGrad::zeros_like(&layer);
        let x = vec![1.0f32, -1.0];
        let y = layer.forward(&x);
        layer.backward_into(&x, &y, &[1.0, 0.0], &mut g1);
        layer.backward_into(&x, &y, &[0.0, 2.0], &mut g2);
        let mut merged = LinearGrad::zeros_like(&layer);
        merged.add_assign(&g1);
        merged.add_assign(&g2);
        // The merged buffer equals the sequential two-sample accumulation.
        let mut seq = LinearGrad::zeros_like(&layer);
        layer.backward_into(&x, &y, &[1.0, 0.0], &mut seq);
        layer.backward_into(&x, &y, &[0.0, 2.0], &mut seq);
        assert_eq!(bits(merged.gw.as_slice()), bits(seq.gw.as_slice()));
        assert_eq!(bits(&merged.gb), bits(&seq.gb));
    }

    #[test]
    fn relu_backward_gates_negative_outputs() {
        assert_eq!(Activation::Relu.backward_from_output(0.0), 0.0);
        assert_eq!(Activation::Relu.backward_from_output(1.5), 1.0);
    }
}
