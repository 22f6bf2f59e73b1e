(* loadgen: replay a deterministic Zipf query trace against the serving
   tier (lib/serve) and report state hit-rates, oracle bills, and — on
   request — throughput.

     loadgen --instances 4 -n 2000 --length 20000 --jobs 4 --out r.load.json

   Determinism contract (gated by @serve-smoke): stdout, --out and
   --profile are byte-identical for every --jobs value and for every
   repetition of the same flags — they are pure functions of the seeds.
   So are --trace's events; its header records the flags, --jobs
   included, that re-create the run (`trace_tool verify`).
   Timing goes to stderr (--time) or to the --bench-out file, whose
   *numbers* are measurements (only its shape is deterministic). *)

module Rng = Lk_util.Rng
module Tbl = Lk_util.Tbl
module Gen = Lk_workloads.Gen
module Params = Lk_lcakp.Params
module Counters = Lk_oracle.Counters
module Server = Lk_serve.Server
module Trace = Lk_serve.Trace

module Json = Lk_benchkit.Json

let schema = "lca-knapsack-load/1"

let bitstring responses =
  String.init (Array.length responses) (fun i -> if responses.(i) then '1' else '0')

let report_row t ~label (r : Server.report) =
  Tbl.add_row t
    [
      label;
      Tbl.cell_int r.Server.pool.Server.hits;
      Tbl.cell_int r.Server.pool.Server.misses;
      Tbl.cell_int r.Server.prepares;
      Tbl.cell_int (Counters.index_queries r.Server.counters);
      Tbl.cell_int (Counters.weighted_samples r.Server.counters);
      Tbl.cell_int
        (Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 r.Server.responses);
    ]

let run instances_count n family capacity_fraction gen_seed length theta_instance
    theta_item seed epsilon sample_scale window jobs repeat time out bench_out trace_path
    profile_path =
  Lk_util.Log_setup.init ();
  if jobs < 1 then begin
    Printf.eprintf "--jobs must be >= 1 (got %d)\n" jobs;
    exit 2
  end;
  if repeat < 1 then begin
    Printf.eprintf "--repeat must be >= 1 (got %d)\n" repeat;
    exit 2
  end;
  let family =
    match Gen.of_name family with
    | Some f -> f
    | None ->
        Printf.eprintf "unknown family %S; known: %s\n" family
          (String.concat ", " (List.map Gen.name Gen.all_families));
        exit 2
  in
  let obs = Obs_cli.setup ~trace:trace_path ~profile:profile_path () in
  (* The library checks every flag that shapes the run's inputs; a value
     it rejects is a bad command line. *)
  let trace, server =
    match
      let instances =
        (* a negative count makes no instances, which Trace.generate
           rejects by name *)
        Array.init (max 0 instances_count) (fun i ->
            Gen.generate ~capacity_fraction family (Rng.create (Int64.of_int (gen_seed + i))) ~n)
      in
      let sizes = Array.map Lk_knapsack.Instance.size instances in
      let trace =
        Trace.generate ~theta_instances:theta_instance ~theta_items:theta_item
          ~seed:(Int64.of_int seed) ~sizes ~length ()
      in
      let params = Params.practical ~sample_scale epsilon in
      (trace, Server.create ~window ~params ~seed:(Int64.of_int seed) instances)
    with
    | inputs -> inputs
    | exception Invalid_argument msg ->
        prerr_endline msg;
        exit Cli_exit.error
  in
  let counts = Trace.instance_counts ~n_instances:instances_count trace in
  let touched = Array.fold_left (fun acc c -> if c > 0 then acc + 1 else acc) 0 counts in
  Printf.printf
    "loadgen: %d instances (family %s, n=%d), trace length %d (%d instances touched),\n\
    \         zipf thetas %.2f/%.2f, window %d\n\n"
    instances_count (Gen.name family) n length touched theta_instance theta_item window;
  let t =
    Tbl.create ~title:"serve replays"
      [ "replay"; "pool hits"; "misses"; "prepares"; "index q"; "samples"; "IN" ]
  in
  let reports = Array.make repeat None in
  let times = Array.make repeat 0. in
  for rep = 0 to repeat - 1 do
    let r, ns =
      Lk_benchkit.Stopwatch.time (fun () ->
          Server.serve ~jobs ~sink:obs.Obs_cli.sink server trace)
    in
    reports.(rep) <- Some r;
    times.(rep) <- ns;
    report_row t ~label:(Printf.sprintf "#%d" (rep + 1)) r;
    if time then begin
      Printf.eprintf "[time] replay #%d: %s total, %s/answer\n%!" (rep + 1)
        (Tbl.cell_ns ns)
        (Tbl.cell_ns (ns /. float_of_int (max 1 length)));
      (* First-touch latency: what a query pays when its prepared state is
         not resident yet.  Warm replays prepare nothing, so this line only
         appears when the replay actually went cold somewhere. *)
      if r.Server.prepares > 0 then
        Printf.eprintf "[time]   cold prepares: %d, %s total, %s/prepare\n%!"
          r.Server.prepares
          (Tbl.cell_ns r.Server.prepare_ns)
          (Tbl.cell_ns (r.Server.prepare_ns /. float_of_int r.Server.prepares))
    end
  done;
  Tbl.print t;
  let first = Option.get reports.(0) in
  (* All replays answer the same trace against states keyed by digest, so
     their responses must be identical — a cheap self-check of the
     determinism contract on every invocation. *)
  Array.iter
    (fun r ->
      let r = Option.get r in
      if r.Server.responses <> first.Server.responses then begin
        Printf.eprintf "loadgen: BUG — replays disagree on responses\n";
        exit 1
      end)
    reports;
  let lookups = first.Server.pool.Server.hits + first.Server.pool.Server.misses in
  let hit_rate r =
    let lk = r.Server.pool.Server.hits + r.Server.pool.Server.misses in
    if lk = 0 then 0. else float_of_int r.Server.pool.Server.hits /. float_of_int lk
  in
  Printf.printf "\npool: %d lookups, cold hit-rate %.4f%s\n" lookups (hit_rate first)
    (if repeat > 1 then
       Printf.sprintf ", warm hit-rate %.4f" (hit_rate (Option.get reports.(repeat - 1)))
     else "");
  (match out with
  | Some path ->
      Json.write_file path
        (Json.Obj
           [
             ("schema", Json.Str schema);
             ("label", Json.Str "loadgen");
             ( "config",
               Json.Obj
                 [
                   ("family", Json.Str (Gen.name family));
                   ("instances", Json.Num (float_of_int instances_count));
                   ("n", Json.Num (float_of_int n));
                   ("gen_seed", Json.Num (float_of_int gen_seed));
                   ("length", Json.Num (float_of_int length));
                   ("theta_instance", Json.Num theta_instance);
                   ("theta_item", Json.Num theta_item);
                   ("seed", Json.Num (float_of_int seed));
                   ("epsilon", Json.Num epsilon);
                   ("sample_scale", Json.Num sample_scale);
                   ("window", Json.Num (float_of_int window));
                   ("repeat", Json.Num (float_of_int repeat));
                 ] );
             ( "summary",
               Json.Obj
                 [
                   ("pool_hits", Json.Num (float_of_int first.Server.pool.Server.hits));
                   ("pool_misses", Json.Num (float_of_int first.Server.pool.Server.misses));
                   ("prepares", Json.Num (float_of_int first.Server.prepares));
                   ( "index_queries",
                     Json.Num (float_of_int (Counters.index_queries first.Server.counters))
                   );
                   ( "weighted_samples",
                     Json.Num
                       (float_of_int (Counters.weighted_samples first.Server.counters)) );
                 ] );
             ("responses", Json.Str (bitstring first.Server.responses));
           ])
  | None -> ());
  (match bench_out with
  | Some path ->
      (* Benchkit rows: replay timings are measurements; the hit-rate rows
         are deterministic values smuggled into ns_per_run so that
         bench_compare gates them alongside the timings (any drift > the
         threshold fails the compare; for an exact quantity that means any
         drift at all). *)
      let per_answer ns = ns /. float_of_int (max 1 length) in
      (* Warm = best replay after the first: every warm replay does the
         same work (all pool hits), so the minimum is the least
         scheduler-noisy estimate of the amortized answer cost. *)
      let warm_ns =
        if repeat > 1 then
          Array.fold_left min times.(1) (Array.sub times 1 (repeat - 1))
        else times.(0)
      in
      (* Single-shot timings carry no OLS fit (r_square = None): under the
         warn-and-downgrade compare they inform but cannot hard-fail the
         gate.  Exact quantities (hit-rates, per-replay prepare counts)
         declare r_square = Some 1.0 — a perfect "fit" — so the gate still
         hard-fails on any drift in them. *)
      let timing name ns =
        { Lk_benchkit.Benchkit.name; ns_per_run = ns; r_square = None }
      in
      let exact name v =
        { Lk_benchkit.Benchkit.name; ns_per_run = v; r_square = Some 1.0 }
      in
      let per_prepare (r : Server.report) =
        r.Server.prepare_ns /. float_of_int (max 1 r.Server.prepares)
      in
      let results =
        [
          timing "loadgen/replay-cold ns-per-answer" (per_answer times.(0));
          timing "loadgen/replay-warm ns-per-answer" (per_answer warm_ns);
          timing "loadgen/prepare-cold ns-per-prepare" (per_prepare first);
          exact "loadgen/pool-hit-rate-cold" (hit_rate first);
          exact "loadgen/pool-hit-rate-warm" (hit_rate (Option.get reports.(repeat - 1)));
          exact "loadgen/prepares-cold" (float_of_int first.Server.prepares);
        ]
      in
      Lk_benchkit.Benchkit.save path
        { Lk_benchkit.Benchkit.label = "loadgen"; quota_s = 0.; limit = repeat; results }
  | None -> ());
  Obs_cli.finish obs ~label:"loadgen"
    ~argv:
      Obs_cli.
        [
          int_opt "instances" instances_count;
          int_opt "n" n;
          opt "family" (Gen.name family);
          float_opt "capacity-fraction" capacity_fraction;
          int_opt "gen-seed" gen_seed;
          int_opt "length" length;
          float_opt "theta-instance" theta_instance;
          float_opt "theta-item" theta_item;
          int_opt "seed" seed;
          float_opt "epsilon" epsilon;
          float_opt "sample-scale" sample_scale;
          int_opt "window" window;
          int_opt "jobs" jobs;
          int_opt "repeat" repeat;
        ]
    ()

open Cmdliner

let instances_arg =
  Arg.(value & opt int 4 & info [ "instances" ] ~docv:"I" ~doc:"Number of distinct instances in the universe.")

let n_arg = Arg.(value & opt int 2000 & info [ "n" ] ~docv:"N" ~doc:"Items per instance.")

let family_arg =
  Arg.(value & opt string "uniform" & info [ "family" ] ~doc:"Workload family for the instances.")

let cf_arg =
  Arg.(value & opt float 0.4 & info [ "capacity-fraction" ] ~doc:"K as a fraction of total weight.")

let gen_seed_arg =
  Arg.(value & opt int 1 & info [ "gen-seed" ] ~doc:"Instance generator base seed (instance i uses gen-seed + i).")

let length_arg =
  Arg.(value & opt int 20000 & info [ "length" ] ~docv:"L" ~doc:"Trace length (number of point queries).")

let theta_instance_arg =
  Arg.(value & opt float 1.1 & info [ "theta-instance" ] ~doc:"Zipf skew over instances (0 = uniform).")

let theta_item_arg =
  Arg.(value & opt float 1.0 & info [ "theta-item" ] ~doc:"Zipf skew over items within an instance.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Serving seed: drives the trace and every preparation stream.")

let epsilon_arg =
  Arg.(value & opt float 0.2 & info [ "epsilon"; "e" ] ~doc:"Approximation parameter.")

let scale_arg =
  Arg.(value & opt float 0.1 & info [ "sample-scale" ] ~doc:"Sampling budget multiplier.")

let window_arg =
  Arg.(value & opt int 4096 & info [ "window" ] ~docv:"W" ~doc:"Entries resolved and answered per round.")

let jobs_arg =
  let doc =
    "Answer each window's per-instance batches over $(docv) domains via the \
     deterministic engine.  All outputs are byte-identical for every $(docv) >= 1; \
     only wall-clock time can change."
  in
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"K" ~doc)

let repeat_arg =
  Arg.(value & opt int 1 & info [ "repeat" ] ~docv:"R" ~doc:"Replay the trace $(docv) times (later replays run against warm prepared states).")

let time_arg =
  let doc = "Report each replay's wall-clock on stderr.  Stdout is unaffected." in
  Arg.(value & flag & info [ "time" ] ~doc)

let out_arg =
  Arg.(value & opt (some Cli_exit.output_path) None
       & info [ "out"; "o" ] ~docv:"FILE"
           ~doc:"Write the response bitstring and run summary to $(docv) as \
                 deterministic JSON (schema lca-knapsack-load/1).")

let bench_out_arg =
  Arg.(value & opt (some Cli_exit.output_path) None
       & info [ "bench-out" ] ~docv:"FILE"
           ~doc:"Write replay timings (ns/answer) and pool hit-rates as a \
                 benchkit file for bench_compare gating (BENCH_PR7.json).")

let cmd =
  let doc = "Replay deterministic Zipf query traces against the lib/serve server" in
  let exits =
    Cli_exit.exits
      [ Cmd.Exit.info 1 ~doc:"when two replays of the trace disagree on a response (a bug)." ]
  in
  Cmd.v (Cmd.info "loadgen" ~doc ~exits)
    Term.(
      const run $ instances_arg $ n_arg $ family_arg $ cf_arg $ gen_seed_arg $ length_arg
      $ theta_instance_arg $ theta_item_arg $ seed_arg $ epsilon_arg $ scale_arg
      $ window_arg $ jobs_arg $ repeat_arg $ time_arg
      $ out_arg $ bench_out_arg $ Obs_cli.trace_arg $ Obs_cli.profile_arg)

let () = Cli_exit.exit (Cmd.eval cmd)
