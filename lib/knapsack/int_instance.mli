(** Integer-valued Knapsack instances, the natural domain of the exact
    dynamic-programming solvers.

    The paper's instances have integer weights before normalization (§2,
    Definition 2.2). *)

type t = private { profits : int array; weights : int array; capacity : int }

val make : profits:int array -> weights:int array -> capacity:int -> t
val size : t -> int

(** [to_float t] embeds into a float {!Instance.t}. *)
val to_float : t -> Instance.t
