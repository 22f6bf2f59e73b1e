(** Reproducible approximate median / quantile over a finite domain
    (Impagliazzo–Lei–Pitassi–Sorrell [ILPS22], Theorem 2.7 of the paper).

    A ρ-reproducible algorithm returns the *same* output on two runs with
    probability ≥ 1 − ρ, when the runs share their internal randomness but
    draw *fresh* i.i.d. samples (Definition 2.5).  This is exactly the
    property LCA-KP needs to keep independent runs consistent (§4.3).

    Structure of the implementation (a faithful-in-shape reconstruction of
    [ILPS22]; see DESIGN.md §2 for the substitution note).  Reproducibility
    is created by three shared-randomness devices, recursing on the domain
    bit-width (2^bits ↦ bits, the log* mechanism):

    + a {e random threshold} q̂ drawn near the target rank: the output rank
      is data-independent, so two runs disagree only if some domain point's
      empirical CDF straddles q̂ — probability O(cdf deviation / τ);
    + a {e random heavy-point cutoff}: if a single domain point carries mass
      ≥ θ̂ across the threshold, both runs detect it and return it exactly;
    + a {e random offset grid} whose spacing exponent is chosen by a
      *recursive* reproducible median over bootstrap estimates in the
      exponent domain ([0..bits], i.e. [exponent_bits bits] wide) — so in
      flat regions both runs round to the same grid point even though their
      empirical quantiles differ.

    The recursion depth is [log*]-like: 32-bit domain → 6-bit exponent
    domain → base case.  Accuracy and reproducibility are verified
    empirically in tests and experiment E7. *)

type params = {
  tau : float;  (** target quantile accuracy (in CDF mass), in (0, 1/2] *)
  rho : float;  (** target reproducibility failure bound *)
  bits : int;  (** the domain is [[0, 2^bits)] *)
}

val validate : params -> unit

(** Number of fresh samples the caller should provide, sized so the
    empirical CDF is within [tau] of truth w.h.p. (DKW), with a floor for
    the bootstrap stage.  A [scale] factor (default 1) multiplies the
    budget. *)
val sample_size : ?scale:float -> params -> int

(** The Theorem 2.7 / Theorem 4.5 worst-case sample-complexity *formula*
    [~ (1/(τ²ρ²)) · (3/τ²)^(log* 2^bits)], reported by experiment E9 for
    shape comparison (its constants are far beyond practical sizes). *)
val theoretical_sample_complexity : params -> float

(** [quantile params ~shared ~p samples] returns a reproducible
    [tau]-approximate [p]-quantile of the distribution the [samples] were
    drawn from.  [shared] is the shared internal randomness (same seed ⇒
    same randomness across runs); [samples] are the run's fresh draws,
    encoded into the domain [[0, 2^bits)]. *)
val quantile : params -> shared:Lk_util.Rng.t -> p:float -> int array -> int

(** [median params ~shared samples] is [quantile params ~shared ~p:0.5]. *)
val median : params -> shared:Lk_util.Rng.t -> int array -> int

(** A sample prepared for many quantile calls: the draws' sorted empirical
    distribution and, from [64 * 64] draws up, the 64 bootstrap chunks,
    each sorted once.  A caller that asks for several ranks of one sample
    (e.g. the EPS thresholds of [Lk_lcakp.Eps.compute]) prepares it once
    instead of paying the sorts on every call. *)
type sample

(** [prepare ?scratch samples] prepares a non-empty [samples].  The sorted
    chunks live in [scratch] when it holds at least [Array.length samples]
    ints (a shorter [scratch] is left untouched): its contents are
    clobbered, and the prepared sample is valid until [scratch] is written
    again.  Results never depend on it. *)
val prepare : ?scratch:int array -> int array -> sample

(** [quantile_prepared params ~shared ~p (prepare samples)] equals
    [quantile params ~shared ~p samples]. *)
val quantile_prepared : params -> shared:Lk_util.Rng.t -> p:float -> sample -> int

(** Depth of the exponent-domain recursion for a given domain width —
    the implementation's analogue of [log* |X|]. *)
val recursion_depth : int -> int
