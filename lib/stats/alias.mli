(** Walker/Vose alias method: O(n) preprocessing, O(1) weighted sampling.

    This is the engine behind the paper's weighted-sampling oracle (§4):
    items are drawn with probability proportional to their profit.  The
    table is built once per instance by the oracle — the *algorithm* under
    measurement only pays one sample per draw, matching the model. *)

type t

(** [create weights] builds a sampler over indices [0 .. n-1] with
    probabilities proportional to [weights].  Weights must be non-negative
    with a positive sum. *)
val create : float array -> t

(** Number of categories. *)
val size : t -> int

(** [probability t i] is the exact sampling probability of index [i]. *)
val probability : t -> int -> float

(** [cell t i] is cell [i]'s (stay-probability, alias-index) pair — the
    internal Vose table, exposed so differential tests can pin the flat
    FIFO-queue construction to a reference build cell by cell. *)
val cell : t -> int -> float * int

(** [sample t rng] draws one index.  It consumes [rng] exactly as
    [Rng.int_bound rng (size t)] (the cell) followed by [Rng.float rng]
    (the stay/alias coin) would, and allocates nothing. *)
val sample : t -> Lk_util.Rng.t -> int

(** [sample_many t rng k] draws [k] indices i.i.d., consuming the stream
    exactly as [k] successive {!sample} calls would. *)
val sample_many : t -> Lk_util.Rng.t -> int -> int array

(** [sample_many_into t rng buf] fills the caller-owned [buf] with
    [Array.length buf] i.i.d. draws — the batch kernel behind
    {!sample_many}, which allocates nothing.  Same stream consumption as
    repeated {!sample}. *)
val sample_many_into : t -> Lk_util.Rng.t -> int array -> unit
