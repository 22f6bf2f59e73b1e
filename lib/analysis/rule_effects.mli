(** The rules over the inferred {!Effects} table: the confinement
    *sites* of {!Effects.rows}, and three *path* rules, each a statement
    about what a binding may transitively reach, proven over the
    whole-program call graph at build time.

    - Sites ([determinism], [parallelism-discipline],
      [timing-discipline], [counting-discipline], [oracle-discipline]):
      every use a row of {!Effects.rows} charges, from a file outside the
      row's home, is reported at the use's line and column with the
      row's message.
    - [effect-determinism-reach]: nothing on [lib/core]'s answer path
      may reach a clock read or channel I/O — an answer must be a pure
      function of (params, seed, oracle).  Reported at the boundary: the
      [lib/core] binding whose own body, or whose first out-of-core
      callee, carries the effect.
    - [effect-parallel-confinement]: [Domain]/[Atomic] reachability is
      blessed only through [Lk_parallel.Engine] (the inference absorbs
      [Domain_spawn] at the [lib/parallel] boundary); a binding calling
      an *unblessed* spawner is flagged.  The spawn itself is a
      [parallelism-discipline] site.
    - [effect-hot-alloc] (warning, opt-in): inside bindings tagged
      [[\@hot]] or whose file is listed in the [lint.hot] manifest,
      closure-creating [List.*]/[Option.*] idioms are flagged — the
      paving stones for the zero-allocation answer path (DESIGN.md
      §14). *)

val id_determinism : string
val id_parallel : string
val id_hot : string

(** [(id, one-line description)] of the three path rules, for the rule
    registry. *)
val rules : (string * string) list

(** [load_manifest path] reads the [lint.hot] manifest: one path (file,
    or directory prefix ending in [/]) per line, [#] comments.  Missing
    file = empty manifest. *)
val load_manifest : string -> string list

(** [check ~manifest table] runs the site check and the three path
    rules; a finding is located at the offending occurrence (sites,
    [effect-hot-alloc]) or binding (the other two). *)
val check : manifest:string list -> Effects.table -> Finding.t list
