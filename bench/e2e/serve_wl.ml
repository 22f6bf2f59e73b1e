(* serve-hot and serve-churn: replay pre-generated 512-query traces
   against one Server, one Server.serve call per request. *)

module Counters = Lk_oracle.Counters
module Engine = Lk_parallel.Engine
module Server = Lk_serve.Server
module Batch = Lk_serve.Batch
module Trace = Lk_serve.Trace
module Stopwatch = Lk_benchkit.Stopwatch

type shape = {
  instances : int;
  n : int;  (** items per instance *)
  theta_instances : float;  (** Zipf skew over instances; items use 1.0 *)
  traces : int;
      (** distinct timed traces, cycled.  Trace.generate rebuilds its Zipf
          tables on every call (~17 ms at 4x100k items), so 2,048 traces
          would add ~40 s to every run; cycling 64 keeps the per-item salt
          memo warm, which README.md ("Trace count") quantifies. *)
  warmup_traces : int;  (** distinct set-up traces, none of them timed *)
  warmup : int;  (** batches served in set-up *)
}

let hot ~smoke =
  {
    instances = 4;
    n = (if smoke then 2_000 else 100_000);
    theta_instances = 1.1;
    traces = (if smoke then 8 else 64);
    warmup_traces = (if smoke then 2 else 8);
    warmup = (if smoke then 4 else 64);
  }

let churn ~smoke =
  {
    instances = 32;
    n = (if smoke then 1_000 else 10_000);
    theta_instances = 0.6;
    traces = (if smoke then 8 else 64);
    warmup_traces = (if smoke then 2 else 8);
    warmup = (if smoke then 4 else 64);
  }

(* Both workloads answer a window on one domain.  At jobs=2 every window
   spawns a domain, and the batch latency follows how soon the host
   schedules the second vCPU more than the program (README.md, "Why
   jobs=1"). *)
let jobs = 1

let span_names =
  [ "serve.server.serve"; "lcakp.lca_kp.prepare"; "parallel.engine.dispatch"; "serve.batch.answer" ]

(* Re-time the request's layers on the same inputs and check that the
   decomposed answers equal the server's.  The preparation child is the
   server's own measurement ([report.prepare_ns]); every other child is a
   fresh call after the request returned. *)
let decompose r ~base prepared groups (report : Server.report) ns =
  let root =
    Span.add r "serve.server.serve" ns
      ~counts:(Common.report_counts ~groups:(Array.length groups) report)
  in
  if report.Server.prepares > 0 then
    ignore (Span.add r ~parent:root "lcakp.lca_kp.prepare" report.Server.prepare_ns);
  let _, dispatch_ns =
    Stopwatch.time (fun () ->
        Engine.run ~jobs ~base ~trials:(Array.length groups) (fun ~index:_ ~rng:_ -> ()))
  in
  ignore (Span.add r ~parent:root "parallel.engine.dispatch" dispatch_ns);
  let answers =
    Common.answer_groups
      (fun algo state items ->
        let ans, ns = Stopwatch.time (fun () -> Batch.answer algo state items) in
        ignore
          (Span.add r ~parent:root "serve.batch.answer" ns
             ~counts:[ ("answers", float_of_int (Array.length items)) ]);
        ans)
      prepared groups
  in
  Span.finish_request r;
  answers = report.Server.responses

let run shape_of ~name (cfg : Loop.config) =
  let shape = shape_of ~smoke:cfg.Loop.smoke in
  let seed = cfg.Loop.seed in
  let instances =
    Array.init shape.instances (fun i ->
        Common.garbage_mix seed [ name; "instance"; string_of_int i ] ~n:shape.n)
  in
  let sizes = Array.map Lk_knapsack.Instance.size instances in
  let traces label count =
    Array.init count (fun t ->
        Trace.generate ~theta_instances:shape.theta_instances
          ~seed:(Common.derived_seed seed [ name; label; string_of_int t ])
          ~sizes ~length:Common.batch ())
  in
  let timed = traces "trace" shape.traces in
  let warmup = traces "warmup-trace" shape.warmup_traces in
  let groups = Array.map Common.groups_of timed in
  (* The expected responses come from benchmark-owned states.  The
     untraced run builds them one instance at a time and drops each, so
     that the memory metric measures the server's states rather than
     these; the traced run keeps them for its decomposition. *)
  let expected = Array.map (fun _ -> Array.make Common.batch false) timed in
  let reference k =
    let p = Common.reference ~seed instances.(k) in
    Array.iteri
      (fun t gs ->
        Array.iter
          (fun (g : Common.group) ->
            if g.instance = k then
              Common.scatter expected.(t) g (Batch.answer_fold p.algo p.state g.items))
          gs)
      groups;
    p
  in
  let prepared =
    match cfg.Loop.tracer with
    | Some _ -> Array.init shape.instances reference
    | None ->
        for k = 0 to shape.instances - 1 do
          ignore (reference k)
        done;
        [||]
  in
  let base = Common.rng seed [ name; "dispatch" ] in
  let setup () =
    let server = Server.create ~params:Common.params ~seed instances in
    for w = 0 to shape.warmup - 1 do
      ignore (Server.serve ~jobs server warmup.(w mod shape.warmup_traces))
    done;
    server
  in
  Loop.run cfg ~ops_per_request:Common.batch ~setup (fun server i ->
      let t = i mod shape.traces in
      let report, ns =
        Stopwatch.time (fun () -> Server.serve ~jobs server timed.(t))
      in
      let ok =
        report.Server.responses = expected.(t)
        && Counters.index_queries report.Server.counters = Common.batch
      in
      let decomposed_ok =
        match cfg.Loop.tracer with
        | None -> true
        | Some r -> decompose r ~base prepared groups.(t) report ns
      in
      { Loop.latency_ns = ns; failed = not (ok && decomposed_ok) })

let layer_metrics r =
  let root = "serve.server.serve" in
  let us name = Span.total_median r name /. 1e3 in
  [
    ("serve.server.self_us", Span.self_median r root /. 1e3);
    ("parallel.engine.dispatch_us", us "parallel.engine.dispatch");
    ("serve.batch.answer_us", us "serve.batch.answer");
    ("serve.batch.ns_per_answer", Common.ns_per_answer r);
    ("lcakp.lca_kp.prepare_us", us "lcakp.lca_kp.prepare");
  ]
  @ Common.accounting_metrics r ~root
