(** Query accounting.

    Every complexity claim in the paper is about *query* complexity
    (footnote 1: queries lower-bound time).  Oracles charge each access to a
    counter so experiments can report measured query costs rather than
    asserted ones. *)

type t

val create : unit -> t

(** Number of point queries ("reveal item i") charged so far. *)
val index_queries : t -> int

(** Number of weighted samples charged so far. *)
val weighted_samples : t -> int

(** Total accesses of both kinds. *)
val total : t -> int

val charge_index_query : t -> unit
val charge_weighted_sample : t -> unit

(** [charge_weighted_samples t n] charges [n] samples at once — the bulk
    path of batched sampling; equivalent to [n] calls of
    {!charge_weighted_sample}. *)
val charge_weighted_samples : t -> int -> unit

(** [charge_index_queries t n] — bulk counterpart of
    {!charge_index_query}. *)
val charge_index_queries : t -> int -> unit

val reset : t -> unit

(** [add ~into t] accumulates [t]'s charges into [into] ([t] unchanged).
    Integer addition is associative and commutative, but merge order is
    still fixed (trial-index order) wherever the parallel engine uses it,
    so merged totals are invariant to the domain count. *)
val add : into:t -> t -> unit

(** Equality of the two oracle charge totals (index queries and weighted
    samples). *)
val equal : t -> t -> bool

(** Deterministic JSON snapshot (fixed field order: index_queries,
    weighted_samples, total) on {!Lk_benchkit.Json}, for machine-readable
    counter dumps ([bin/lcakp_cli --counters]). *)
val to_json : t -> Lk_benchkit.Json.t
