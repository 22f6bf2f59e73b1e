(** Plain-text instance files.

    Format: optional [#]-comment lines; the first data line is the
    capacity; every further data line is ["<profit> <weight>"].  This is the
    format [lcakp_cli] consumes and [lcakp_cli gen] emits. *)

(** [write path inst] writes the instance (plus a size comment). *)
val write : string -> Lk_knapsack.Instance.t -> unit

(** [read path] parses an instance file.  A file that cannot be read or
    parsed gives [Error msg], where [msg] starts with [path] and, for a
    parse error, names the line: ["inst.txt: line 2: bad item \"1 x\""].
    Never raises on file contents. *)
val read : string -> (Lk_knapsack.Instance.t, string) result

(** In-memory variants (for tests and piping); {!of_string}'s errors name
    the line but no path. *)
val to_string : Lk_knapsack.Instance.t -> string

val of_string : string -> (Lk_knapsack.Instance.t, string) result
