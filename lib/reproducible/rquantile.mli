(** rQuantile (Algorithm 1 of the paper): reproducible τ-approximate
    p-quantiles, with the paper's reduction to the reproducible median by
    ±∞ padding (§4.2), alongside the native generalization.

    The paper pads an [n]-sample array with [x = (1-p)·n] copies of −∞ and
    [y = p·n] copies of +∞, making the median of the padded array the
    p-quantile of the original.  We realize ±∞ as two extra domain values
    (shifting the encoded domain by one and widening it by one bit), run
    {!Rmedian.median} on the padded domain, and map back. *)

type params = {
  tau : float;  (** target accuracy of the p-quantile *)
  rho : float;  (** target reproducibility parameter *)
  beta : float;  (** target failure probability (accuracy side) *)
  bits : int;  (** quantile domain is [[0, 2^bits)] *)
}

val validate : params -> unit

(** Fresh-sample budget for one call (see {!Rmedian.sample_size}; the
    [beta]/[rho] pair folds into the confidence target). *)
val sample_size : ?scale:float -> params -> int

(** Theorem 4.5's sample-complexity formula
    [~ (1/(τ²(ρ−β)²)) · (12/τ²)^(log* |X| + 1)] (for reporting). *)
val theoretical_sample_complexity : params -> float

(** [run params ~shared ~p samples] — native reproducible p-quantile. *)
val run : params -> shared:Lk_util.Rng.t -> p:float -> int array -> int

(** [run_prepared params ~shared ~p sample] — {!run} over a sample
    prepared once by {!Rmedian.prepare}, for callers asking for several
    ranks of the same draws; [run_prepared params ~shared ~p
    (Rmedian.prepare samples)] equals [run params ~shared ~p samples]. *)
val run_prepared : params -> shared:Lk_util.Rng.t -> p:float -> Rmedian.sample -> int

(** [run_via_padding params ~shared ~p samples] — the paper's Algorithm 1:
    pad to turn the p-quantile into a median, then call rMedian on the
    (bits+1)-wide domain.  Returns a value of the *original* domain: padding
    sentinels are clamped to the nearest real sample. *)
val run_via_padding : params -> shared:Lk_util.Rng.t -> p:float -> int array -> int
