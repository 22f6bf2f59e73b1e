(** Typed trace events for the LCA query path.

    One event per observable step of a run: oracle accesses (the paper's
    whole subject is what an LCA touches per query), RNG stream
    derivations, phase structure, and per-trial boundaries of the parallel
    engine.  Events carry only ints and strings,
    so equality is exact and the JSON serialization is byte-stable — two
    runs with the same (params, seed) produce byte-identical streams. *)

type oracle =
  | Index_query of int  (** point query "reveal item i" *)
  | Index_batch of int  (** batched point queries; payload = batch size k *)
  | Weighted_sample of int  (** one weighted sample; payload = drawn index *)
  | Weighted_batch of int  (** batched sampling; payload = batch size k *)

type t =
  | Oracle_query of oracle
  | Rng_split of string  (** a derived RNG stream, labelled by its origin *)
  | Phase_enter of string
  | Phase_exit of string
  | Trial_start of int  (** engine trial boundary (trial index) *)
  | Trial_end of int
  | Partition of { large : int; buckets : int; samples : int }
      (** Ĩ assembly summary: large items found, EPS buckets, samples paid *)

(** Short dotted label, e.g. ["oracle.sample"] — the histogram key used by
    [trace_tool show]. *)
val label : t -> string

val equal : t -> t -> bool

(** Deterministic serialization onto {!Lk_benchkit.Json} (fields in a fixed
    order). *)
val to_json : t -> Lk_benchkit.Json.t

val of_json : Lk_benchkit.Json.t -> (t, string) result
val to_string : t -> string
