(** The vetted-exception file [lint.allow].

    Syntax, one entry per line:
    {v <rule-id> <path> # <justification> v}
    Blank lines and lines whose first non-blank character is [#] are
    comments.  The justification is mandatory — an entry without one is
    itself reported as an [allowlist] error.  An entry exempts the whole
    file from the rule; a path with a [:<line>] suffix is an [allowlist]
    error, because a line key breaks whenever a line is added above it. *)

type entry = {
  rule : string;
  path : string;
  justification : string;
  source_line : int;  (** line of the entry inside the allowlist file *)
  mutable used : bool;  (** set once a finding matched this entry *)
}

type t

(** An allowlist with no entries (what {!load} returns for a missing file). *)
val empty : t

(** [parse ?known ?file content] parses the text of an allowlist;
    malformed or justification-less entries become [allowlist] errors in
    {!errors}.  When [known] (the valid rule-id registry) is given, an
    entry naming an unknown rule id is *rejected at load time* — it
    becomes an [allowlist] error and allowlists nothing, instead of
    silently matching nothing and surfacing later as "stale". *)
val parse : ?known:string list -> ?file:string -> string -> t

(** [load ?known path] reads and parses [path]; a missing file is an
    empty list. *)
val load : ?known:string list -> string -> t

(** [is_allowed t ~rule ~file] checks (and marks used) a matching
    entry. *)
val is_allowed : t -> rule:string -> file:string -> bool

(** [filter t findings] drops findings covered by an entry, marking the
    entries used. *)
val filter : t -> Finding.t list -> Finding.t list

(** [stale t] is a warning per entry never marked used — call after
    {!filter}. *)
val stale : t -> Finding.t list

val entries : t -> entry list
val errors : t -> Finding.t list
