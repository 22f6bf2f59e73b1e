(* Inputs, references and serving accounting shared by the workloads.
   Every input is a function of the workload seed and a label path, so the
   same seed gives the same inputs. *)

module Rng = Lk_util.Rng
module Instance = Lk_knapsack.Instance
module Access = Lk_oracle.Access
module Params = Lk_lcakp.Params
module Lca_kp = Lk_lcakp.Lca_kp
module Trace = Lk_serve.Trace

let params = Params.practical ~sample_scale:0.02 0.2

(* Queries per request: one serving window. *)
let batch = 512

let rng seed labels = Rng.of_path seed ("e2e" :: labels)
let derived_seed seed labels = Rng.int64 (rng seed labels)

let garbage_mix seed labels ~n =
  Lk_workloads.Gen.generate Lk_workloads.Gen.Garbage_mix (rng seed labels) ~n

(* The stream Server derives for a digest's preparation (server.mli's
   determinism argument); a state rebuilt from it must answer exactly as
   the server does. *)
let prepare_fresh seed digest = Rng.of_path seed [ "serve-prepare"; digest ]

type prepared = { algo : Lca_kp.t; state : Lca_kp.state }

(* A benchmark-owned prepared state on a fresh oracle: [Lca_kp.run] never
   consults the memo, so it is an independent reference. *)
let reference ~seed inst =
  let algo = Lca_kp.create params (Access.of_instance inst) ~seed in
  { algo; state = Lca_kp.run algo ~fresh:(prepare_fresh seed (Instance.digest inst)) }

(* One instance's share of a request: trace positions and item indices. *)
type group = { instance : int; positions : int array; items : int array }

(* Entries grouped by instance in first-appearance order — the order the
   server answers a window in. *)
let groups_of trace =
  let entries = Trace.entries trace in
  let order = ref [] and members = Hashtbl.create 8 in
  Array.iteri
    (fun p (e : Trace.entry) ->
      match Hashtbl.find_opt members e.instance with
      | Some ps -> Hashtbl.replace members e.instance (p :: ps)
      | None ->
          order := e.instance :: !order;
          Hashtbl.replace members e.instance [ p ])
    entries;
  List.rev !order
  |> List.map (fun instance ->
         let positions = Array.of_list (List.rev (Hashtbl.find members instance)) in
         { instance; positions; items = Array.map (fun p -> entries.(p).item) positions })
  |> Array.of_list

(* The accounting of one Server.serve call, as counts on its root span. *)
let report_counts ~groups (report : Lk_serve.Server.report) =
  let pool = report.pool in
  [
    ("answers", float_of_int (Array.length report.responses));
    ("groups", float_of_int groups);
    ("pool_hits", float_of_int pool.hits);
    ("pool_lookups", float_of_int (pool.hits + pool.misses));
    ("pool_evictions", float_of_int pool.evictions);
    ("prepares", float_of_int report.prepares);
    ("memo_hits", float_of_int report.memo_hits);
    ("index_queries", float_of_int (Lk_oracle.Counters.index_queries report.counters));
  ]

(* Per-batch serving accounting, from the counts on the root spans. *)
let accounting_metrics r ~root =
  let requests = float_of_int (Span.requests r) in
  let sum key = Span.count_sum r root key in
  [
    ("lcakp.lca_kp.prepares_per_batch", Span.ratio (sum "prepares") requests);
    ("lcakp.lca_kp.memo_hit_rate", Span.ratio (sum "memo_hits") (sum "prepares"));
    ("serve.pool.hit_rate", Span.ratio (sum "pool_hits") (sum "pool_lookups"));
    ("serve.pool.evictions_per_batch", Span.ratio (sum "pool_evictions") requests);
    ("serve.server.groups_per_batch", Span.ratio (sum "groups") requests);
    ("oracle.counters.index_queries_per_answer", Span.ratio (sum "index_queries") (sum "answers"));
  ]

(* Time per answer over the whole run. *)
let ns_per_answer r =
  Span.ratio (Span.total_sum r "serve.batch.answer") (Span.count_sum r "serve.batch.answer" "answers")

(* Write a group's answers back to their trace positions in [out]. *)
let scatter out g ans = Array.iteri (fun j pos -> out.(pos) <- ans.(j)) g.positions

(* Answers of every group through [answer], back in trace order. *)
let answer_groups answer prepared groups =
  let out = Array.make batch false in
  Array.iter
    (fun g ->
      let p = prepared.(g.instance) in
      scatter out g (answer p.algo p.state g.items))
    groups;
  out
