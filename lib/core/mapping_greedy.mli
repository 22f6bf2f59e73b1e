(** MAPPING-GREEDY (Algorithm 4) and the membership rule of Algorithm 2,
    lines 20–24.

    A decision rule is compiled once, from (params, seed, decision), into a
    {!rule}; {!member} applies it to one revealed item and {!solution} to a
    whole instance.  {!Lca_kp.answer}, {!Lca_kp.answer_many} and
    {!Lca_kp.induced_solution} all apply the same compiled rule, so the
    induced solution is exactly the set \{i : answer i = yes\}. *)

(** A compiled membership rule. *)
type rule

(** [compile ~salts params ~seed decision].  [salts] is a tie-salt memo
    (a {!Prep_arena} salt lane, [-1] = unfilled), read and filled as in
    {!Params.encode_efficiency}: an index beyond it recomputes its salt,
    so [[||]] is a valid memo, and the memo never changes an answer. *)
val compile :
  salts:int array -> Params.t -> seed:int64 -> Convert_greedy.decision -> rule

(** [member rule item ~index] — the rule for one revealed item.  A large
    item ([p > ε²]) is in iff [index] is in [index_large].  A small item is
    in iff the decision is in prefix mode, has an efficiency cut-off, and
    the item's efficiency clears both ε² (the paper's S(I) condition, a
    defensive guard against garbage) and the cut-off in the refined
    domain.  Everything else is out. *)
val member : rule -> Lk_knapsack.Item.t -> index:int -> bool

(** [solution rule instance] applies lines 1–4 of Algorithm 4: the set of
    indices whose item [rule] accepts.  This is an {e experiment-side}
    operation (it scans the whole instance); the LCA itself answers point
    queries. *)
val solution : rule -> Lk_knapsack.Instance.t -> Lk_knapsack.Solution.t
