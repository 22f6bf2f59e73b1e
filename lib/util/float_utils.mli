(** Small numeric helpers shared across the project. *)

(** [approx_eq ?eps a b] is true when [a] and [b] differ by at most [eps]
    (default [1e-9]) absolutely, or relatively for large magnitudes. *)
val approx_eq : ?eps:float -> float -> float -> bool

(** [clamp ~lo ~hi x] bounds [x] into [[lo, hi]]. *)
val clamp : lo:float -> hi:float -> float -> float

(** Kahan-compensated sum of an array. *)
val sum : float array -> float

(** [sum_by f a] is the compensated sum of [f a.(i)]. *)
val sum_by : ('a -> float) -> 'a array -> float

(** Arithmetic mean; 0 on the empty array. *)
val mean : float array -> float

(** Base-2 logarithm. *)
val log2 : float -> float

(** [iterated_log2 n] is the iterated logarithm log* of [n] (Definition in
    §2 of the paper): 0 if [n <= 1], else [1 + iterated_log2 (log2 n)]. *)
val iterated_log2 : float -> int
