(** The lint driver: walks [root]'s [lib/] and [bin/] trees, runs every
    per-file rule in its scope, builds the whole-program call graph and
    effect table, runs the reachability rules, filters findings through
    the [lint.allow] list, and returns the surviving findings sorted by
    location.

    Rule scopes:
    - [determinism], [parallelism-discipline], [timing-discipline],
      [counting-discipline] (the {!Rule_confine} table): every [.ml] under
      [lib/] and [bin/] outside the row's home directory;
    - [iteration-order], [float-equality]: every [.ml] under [lib/];
    - [oracle-discipline]: [.ml] files in the layers above the oracle
      (see {!Rule_oracle.restricted_dirs});
    - [mli-coverage]: the [lib/] file listing;
    - [layering]: every [lib/*/dune] file;
    - [effect-*] (see {!Rule_effects}): the whole-program effect table
      over every [.ml] under [lib/] and [bin/]. *)

(** Rule registry: [(id, one-line description)], including the pseudo-rule
    ["allowlist"] under which allowlist problems are reported, and the
    four reachability rules. *)
val rules : (string * string) list

type report = {
  files_checked : int;
  findings : Finding.t list;  (** post-allowlist, location-sorted *)
  effects : Effects.table;  (** the full inferred effect table *)
}

(** [analyze ?allow_file ?hot_manifest ~root ()] lints the tree rooted
    at [root] (paths in findings are relative to it).  [allow_file]
    defaults to [root ^ "/lint.allow"] and [hot_manifest] to
    [root ^ "/lint.hot"]; both are simply empty when missing. *)
val analyze :
  ?allow_file:string -> ?hot_manifest:string -> root:string -> unit -> report
