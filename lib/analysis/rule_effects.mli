(** Reachability-level discipline rules over the inferred {!Effects}
    table.  Where the token rules check *sites*, these check *paths*:
    every rule here is a statement about what a binding may transitively
    reach, proven over the whole-program call graph at build time.

    - [effect-oracle-accounting]: a binding whose body reaches the raw
      [Instance] item accessors without going through the
      [Lk_oracle.Access]/[Counters] charging seam breaks query
      accounting.  Fires only in directories the token-level
      [oracle-discipline] rule does not already watch, so each probe is
      reported exactly once.
    - [effect-determinism-reach]: nothing on [lib/core]'s answer path
      may reach a clock read or channel I/O — an answer must be a pure
      function of (params, seed, oracle).  Reported at the boundary: the
      [lib/core] binding whose own body, or whose first out-of-core
      callee, carries the effect.
    - [effect-parallel-confinement]: [Domain]/[Atomic] reachability is
      blessed only through [Lk_parallel.Engine] (the inference absorbs
      [Domain_spawn] at the [lib/parallel] boundary); a binding calling
      an *unblessed* spawner is flagged.  The direct spawn site itself
      is the token rule [parallelism-discipline]'s to report.
    - [effect-hot-alloc] (warning, opt-in): inside bindings tagged
      [[\@hot]] or whose file is listed in the [lint.hot] manifest,
      closure-creating [List.*]/[Option.*] idioms are flagged — the
      paving stones for the zero-allocation answer path (DESIGN.md
      §14). *)

val id_oracle : string
val id_determinism : string
val id_parallel : string
val id_hot : string

(** [(id, one-line description)] for the rule registry. *)
val rules : (string * string) list

(** [load_manifest path] reads the [lint.hot] manifest: one path (file,
    or directory prefix ending in [/]) per line, [#] comments.  Missing
    file = empty manifest. *)
val load_manifest : string -> string list

(** [check ~manifest table] runs all four rules; findings are located at
    the offending binding (or the offending occurrence, for
    [effect-hot-alloc]). *)
val check : manifest:string list -> Effects.table -> Finding.t list
