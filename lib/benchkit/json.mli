(** Minimal JSON tree, printer, and parser — just enough for the BENCH_*
    result files ({!Benchkit.to_json}'s schema) without pulling a JSON
    dependency into the project.

    The printer is deterministic (two-space indent, fields in the order
    given, floats via [%.17g] so values round-trip exactly); BENCH files
    are committed to the repo, so byte-stable output matters. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(** Deterministic pretty-printing (trailing newline included). *)
val to_string : t -> string

val write_file : string -> t -> unit

exception Parse_error of string

(** [parse s] — strict JSON; raises {!Parse_error} with an offset on
    malformed input. *)
val parse : string -> t

val of_file : string -> t

(** [load_file path decode] reads, parses and decodes the file at [path].
    A missing or unreadable file, malformed JSON and a decode failure all
    come back as [Error], with [path ^ ": "] in front exactly once. *)
val load_file : string -> (t -> ('a, string) result) -> ('a, string) result

(** [member key json] — field lookup on [Obj], [None] elsewhere. *)
val member : string -> t -> t option

val to_float : t -> float option
val to_string_opt : t -> string option
val to_list : t -> t list option
