(** Parameters of LCA-KP (Algorithm 2).

    Two presets:

    - {!faithful}: the paper's constants — τ = ε²/5, ρ = ε²/18, β = ρ/2
      (Algorithm 2, line 5).  The induced rQuantile sample budgets grow like
      1/(ρτ)² = O(1/ε⁸·polylog); usable for moderate-to-large ε.
    - {!practical}: τ = ε/4, ρ = ε/2 — a documented relaxation keeping the
      same algorithm but affordable budgets (O(1/ε⁴)); the approximation
      guarantee degrades from (1/2, 6ε) to (1/2, c·ε) with c measured in
      experiment E4.

    Both presets can be further scaled with [sample_scale] (multiplies the
    per-quantile fresh-sample budget; experiment E6 sweeps it to show how
    consistency responds). *)

type quantile_impl =
  | Reproducible  (** rQuantile — the paper's Algorithm 1 *)
  | Naive
      (** plain empirical quantiles — the broken strawman of §4.1 whose
          inconsistency motivates the reproducibility machinery (ablation
          baseline, experiment E6) *)

type t = {
  epsilon : float;
  tau : float;
  rho : float;
  beta : float;
  bits : int;  (** efficiency-domain width (Definition in {!Lk_repro.Domain}) *)
  tie_bits : int;
      (** per-item tie-break bits appended below the efficiency code (see
          {!Lk_repro.Domain.refine}); 0 reproduces the paper's rule verbatim,
          which collapses on tied-efficiency instances such as subset-sum *)
  sample_scale : float;
  quantile : quantile_impl;
  preset : string;
}

val faithful :
  ?bits:int -> ?tie_bits:int -> ?sample_scale:float -> ?quantile:quantile_impl -> float -> t

val practical :
  ?bits:int -> ?tie_bits:int -> ?sample_scale:float -> ?quantile:quantile_impl -> float -> t

(** [digest t] is an exact textual fingerprint of every field (floats
    rendered in hex notation, so no rounding collisions).  Two params
    digest equal iff they are structurally equal; [trace_tool] records it
    in a trace's meta block. *)
val digest : t -> string

(** [r_sample_size t] — the size m of the first sample R̄ (Algorithm 2 line
    1): Lemma 4.2's coupon-collector bound for B = \{p ≥ ε²\}, amplified from
    failure 1/6 to ε/3 by batch repetition. *)
val r_sample_size : t -> int

(** [rq_sample_size t] — n_rq, the per-call fresh-sample budget of
    rQuantile (line 5). *)
val rq_sample_size : t -> int

(** Parameters handed to {!Lk_repro.Rquantile} (over the tie-refined
    domain of [bits + tie_bits] bits). *)
val rquantile_params : t -> Lk_repro.Rquantile.params

(** [encode_efficiency t ~seed ~index eff] — the refined domain code every
    efficiency comparison inside the LCA uses: monotone in [eff],
    deterministic in (seed, index).  [?salt_cache] (a {!Prep_arena} salt
    lane) memoizes the per-index tie-salt; passing it never changes the
    result, only skips the derivation-path hash on a warm slot. *)
val encode_efficiency :
  ?salt_cache:int array -> t -> seed:int64 -> index:int -> float -> int

(** Efficiency represented by a refined code (tie bits dropped). *)
val decode_efficiency : t -> int -> float

(** Threshold separating large from small/garbage items: ε². *)
val large_profit_cutoff : t -> float

(** ⌊1/ε⌋, the number of copies of each small representative in Ĩ. *)
val copies_per_bucket : t -> int

(** Theorem 4.1's query-complexity formula [(1/ε)^{O(log* n)}] evaluated
    with the implementation's constants, for reporting in E9. *)
val theoretical_query_complexity : t -> n:int -> float
