(** Batched answering against one prepared run state.

    The amortization contract (the serving tier's second leg, next to the
    prepared states {!Server} keeps): [answer algo state idx] is byte-identical to folding
    [Lca_kp.answer] over [idx], and the oracle bill is the same
    ([Array.length idx] index queries) — but the reveals flow through
    [Access.query_many], so the counters are charged in one bulk add and
    the trace carries a single [Index_batch] event instead of thousands of
    per-item events.  {!answer_fold} is the reference singleton path the
    differential test compares against. *)

(** [answer algo state idx] — the batched path. *)
val answer : Lk_lcakp.Lca_kp.t -> Lk_lcakp.Lca_kp.state -> int array -> bool array

(** [answer_fold algo state idx] — reference fold of [Lca_kp.answer];
    same answers, same totals, one counter charge and one trace event per
    item. *)
val answer_fold : Lk_lcakp.Lca_kp.t -> Lk_lcakp.Lca_kp.state -> int array -> bool array
