(** Benchmark pipeline: run bechamel suites, serialize results to a stable
    JSON file (schema ["lca-knapsack-bench/1"]), render tables, and diff two
    result files for regression gating.

    [bench/main.ml] is a thin driver over this library; [bin/bench_compare]
    consumes two saved files and fails on regression.  The committed
    BENCH_PR3.json at the repo root is produced by
    [dune exec bench/main.exe -- --out BENCH_PR3.json]. *)

(** One analyzed bench: OLS nanoseconds per run against the run-count
    predictor, plus the fit's r². *)
type result = { name : string; ns_per_run : float; r_square : float option }

(** A full run: metadata (free-form label, bechamel quota seconds and
    iteration limit) plus per-bench rows sorted by name. *)
type file = {
  label : string;
  quota_s : float;
  limit : int;
  results : result list;
}

val default_limit : int
val default_quota_s : float

(** [run ?limit ?quota_s test] benchmarks a (grouped) bechamel test with
    the monotonic clock and OLS analysis; rows come back sorted by name so
    output is deterministic given the measurements. *)
val run : ?limit:int -> ?quota_s:float -> Bechamel.Test.t -> result list

(** {!run} packaged with its metadata. *)
val measure : ?limit:int -> ?quota_s:float -> label:string -> Bechamel.Test.t -> file

val schema : string

val to_json : file -> Json.t
val of_json : Json.t -> (file, string) Stdlib.result
val save : string -> file -> unit

(** [load path] returns every I/O, parse and schema error as [Error],
    naming [path] once ({!Json.load_file}). *)
val load : string -> (file, string) Stdlib.result

(** ASCII table of a run (via {!Lk_util.Tbl}, durations through
    [Tbl.cell_ns]). *)
val render_table : file -> string

type delta = {
  bench : string;
  baseline_ns : float;
  candidate_ns : float;
  ratio : float;
  gated : bool;
      (** both sides have a non-negative r² — the ratio is trustworthy
          enough to hard-fail the gate.  A null r² (no OLS fit: one-shot
          timing or starved quota) or a negative one (fit worse than no
          model) downgrades the row to warn-only. *)
}

type comparison = {
  deltas : delta list;  (** benches present in both files, baseline order *)
  regressions : delta list;  (** gated deltas with [ratio > 1 + threshold] *)
  warnings : delta list;  (** ungated deltas with [ratio > 1 + threshold] *)
  missing : string list;  (** in baseline, absent from candidate *)
  added : string list;  (** in candidate, absent from baseline *)
}

(** [compare_files ~threshold ~baseline ~candidate] — a candidate bench
    regresses when its time exceeds the baseline by more than [threshold]
    (e.g. [0.15] = 15%) {e and} the row is gated; an over-threshold row
    whose r² is null or negative on either side lands in [warnings]
    instead (low-confidence fits inform, they don't gate). *)
val compare_files : threshold:float -> baseline:file -> candidate:file -> comparison

val render_comparison : threshold:float -> comparison -> string
