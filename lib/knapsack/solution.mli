(** A Knapsack solution: a set of item indices of some instance. *)

type t

val empty : t
val of_indices : int list -> t
val singleton : int -> t
val add : int -> t -> t
val union : t -> t -> t
val mem : int -> t -> bool
val cardinal : t -> int
val indices : t -> int list

(** [profit instance s] / [weight instance s]: totals over the selected
    items (compensated summation). *)
val profit : Instance.t -> t -> float

val weight : Instance.t -> t -> float

(** Feasibility: total weight within capacity (with a tiny tolerance for
    float round-off: [w(S) <= K * (1 + 1e-12) + 1e-12]). *)
val is_feasible : Instance.t -> t -> bool

(** Maximality: feasible, and no excluded item fits in the remaining
    capacity (the relaxation studied in Theorem 3.4). *)
val is_maximal : Instance.t -> t -> bool

(** [of_answers answers] builds a solution from a per-index membership
    array, as reconstructed from LCA answers. *)
val of_answers : bool array -> t

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
