(** A Knapsack instance [I = (S, K)]: an array of items and a capacity.

    The paper normalizes the total profit of [S] to 1 (Definition 2.2);
    {!normalize_profits} performs that normalization.  Indices into the item
    array are the query vocabulary of the LCA ("is item [i] part of the
    solution?"). *)

type t = private { items : Item.t array; capacity : float }

(** [make items ~capacity] validates capacity >= 0 and a non-empty item
    array. *)
val make : Item.t array -> capacity:float -> t

(** [of_pairs pairs ~capacity] builds from [(profit, weight)] pairs. *)
val of_pairs : (float * float) list -> capacity:float -> t

val size : t -> int
val item : t -> int -> Item.t
val capacity : t -> float
val total_profit : t -> float
val total_weight : t -> float

(** [normalize_profits t] rescales all profits so they sum to 1; the
    capacity and the weights are untouched (efficiencies all scale by the
    same factor, so greedy order and thresholds are consistent).  Raises if
    the total profit is zero. *)
val normalize_profits : t -> t

(** [normalize t] rescales profits to total 1 *and* weights (with the
    capacity) to total 1 — the §4 convention of the paper, under which the
    ε² large/small/garbage thresholds are meaningful.  Solutions and
    approximation ratios are invariant under this scaling.  Raises if the
    total profit or total weight is zero. *)
val normalize : t -> t

(** [is_normalized ?eps t] checks total profit ≈ 1. *)
val is_normalized : ?eps:float -> t -> bool

(** Deterministic content digest (32 hex chars): the MD5 of n, then the
    IEEE bits of the capacity and of each item's profit and weight, each
    written as an 8-byte little-endian int64.  Two instances share a
    digest iff n, the capacity and every float are bit-identical, so [0.]
    and [-0.] differ.  The server keeps one prepared run state per
    digest, so identical instances share it. *)
val digest : t -> string

(** [map_items f t] transforms every item (capacity preserved). *)
val map_items : (Item.t -> Item.t) -> t -> t

(** Profits (resp. weights) as a fresh array — handy for building the
    weighted-sampling oracle. *)
val profits : t -> float array

val weights : t -> float array
