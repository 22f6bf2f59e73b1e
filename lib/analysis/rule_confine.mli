(** The four confinement rules [determinism], [parallelism-discipline],
    [timing-discipline] and [counting-discipline], as one table and one
    matcher.

    Each row bans a list of module names (or dotted value names) outside
    one home directory, or everywhere.  A token trips a row when, after an
    optional [Stdlib.] prefix, it {e is} one of the row's names or starts
    with one followed by a dot: [Random.int] and [Stdlib.Mutex.create]
    match, [Lk_repro.Domain.size], [Sys.time_foo] and [Hashtbl.hash_param]
    do not.  Names inside strings and comments are not flagged (the
    tokenizer drops them).  Scope: [.ml] files under [lib/] and [bin/]. *)

type row = {
  rule : string;  (** rule id, as in [lint.allow] and {!Engine.rules} *)
  modules : string list;  (** e.g. [["Domain"; "Atomic"]], [["Sys.time"]] *)
  home : string option;
      (** the directory whose files may use them (["lib/parallel/"]);
          [None] bans them everywhere *)
  why : string;  (** the finding message after the quoted token *)
}

val rows : row list

(** [check ~file tokens] scans one tokenized compilation unit; a finding
    quotes the token as written and appends its row's [why]. *)
val check : file:string -> Tokenizer.token array -> Finding.t list
