module Json = Lk_benchkit.Json
module Trace = Lk_obs.Trace

let num i = Json.Num (float_of_int i)

(* ------------------------------------------------------------- perfetto *)

(* One process/thread pair is enough: the recorded stream is already the
   deterministic single-owner merge (Engine.run_traced), so nesting — not
   concurrency — is the structure worth drawing. *)
let span_event (s : Span.t) =
  Json.Obj
    [ ("name", Json.Str (Span.display_name s));
      ("cat", Json.Str (match s.Span.trial with Some _ -> "trial" | None -> "phase"));
      ("ph", Json.Str "X");
      ("ts", num s.Span.start);
      ("dur", num (s.Span.stop - s.Span.start));
      ("pid", num 0);
      ("tid", num 0);
      ("args",
       Json.Obj
         [ ("queries_self", num (Span.queries s.Span.self));
           ("queries_total", num (Span.queries s.Span.total));
           ("events_total", num s.Span.total.Span.events) ]) ]

let counter_event ~cumulative t =
  Json.Obj
    [ ("name", Json.Str "oracle.queries");
      ("ph", Json.Str "C");
      ("ts", num t);
      ("pid", num 0);
      ("args", Json.Obj [ ("queries", num cumulative.(t)) ]) ]

let perfetto tr =
  let events = Trace.events tr in
  (* cumulative.(t): oracle queries charged before tick t, one tick per
     event — the counter track sampled at every span boundary. *)
  let cumulative = Array.make (List.length events + 1) 0 in
  List.iteri
    (fun i e ->
      cumulative.(i + 1) <- cumulative.(i) + Span.queries (Span.cost_of_event e))
    events;
  let root, _issues = Span.of_events events in
  let spans = ref [] and ticks = ref [] in
  let rec walk (s : Span.t) =
    spans := span_event s :: !spans;
    ticks := s.Span.start :: s.Span.stop :: !ticks;
    List.iter walk s.Span.children
  in
  walk root;
  let counters =
    List.sort_uniq compare !ticks |> List.map (counter_event ~cumulative)
  in
  Json.Obj
    [ ("traceEvents", Json.Arr (List.rev !spans @ counters));
      ("displayTimeUnit", Json.Str "ms");
      ("otherData", Json.Obj [ ("timebase", Json.Str "event-index") ]) ]

(* --------------------------------------------------------------- folded *)

let folded tr =
  let b = Buffer.create 256 in
  List.iter
    (fun (r : Profile.row) ->
      let q = Span.queries r.Profile.self in
      if q > 0 then Buffer.add_string b (Printf.sprintf "%s %d\n" r.Profile.path q))
    (Profile.of_trace tr).Profile.rows;
  Buffer.contents b

let write_text path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc
