module Rng = Lk_util.Rng
module Instance = Lk_knapsack.Instance
module Int_instance = Lk_knapsack.Int_instance
module Counters = Lk_oracle.Counters
module Query_oracle = Lk_oracle.Query_oracle
module Obs = Lk_obs.Obs
module Event = Lk_obs.Event
module Json = Lk_benchkit.Json
module Robp = Lk_counting.Robp
module Count_scratch = Lk_counting.Count_scratch
module State_dp = Lk_counting.State_dp
module Exact = Lk_counting.Exact
module Gkm = Lk_counting.Gkm
module Svv = Lk_counting.Svv
module Sampler = Lk_counting.Sampler
module Report = Lk_counting.Report

(* ---------- helpers ---------- *)

let instance_of_weights weights ~capacity =
  Instance.make
    (Array.map (fun w -> Lk_knapsack.Item.make ~profit:1. ~weight:(float_of_int w)) weights)
    ~capacity:(float_of_int capacity)

let oracle_of_weights ?sink weights ~capacity =
  let counters = Counters.create () in
  let oracle =
    Query_oracle.of_instance ?sink ~counters (instance_of_weights weights ~capacity)
  in
  (oracle, counters)

let robp_of weights ~capacity = Robp.of_weights weights ~capacity

(* Brute-force reference, independent of every lib/counting engine. *)
let brute weights ~capacity =
  let n = Array.length weights in
  assert (n <= 20);
  let count = ref 0. in
  for mask = 0 to (1 lsl n) - 1 do
    let sum = ref 0 in
    for j = 0 to n - 1 do
      if mask land (1 lsl j) <> 0 then sum := !sum + weights.(j)
    done;
    if !sum <= capacity then count := !count +. 1.
  done;
  !count

(* ---------- reference GKM kernel ---------- *)

(* The two-pass kernel Gkm.count_in replaced, verbatim: a merge with a
   trailing third pointer into a raw buffer, then a separate sparsify
   pass over it.  The single-pass kernel must agree with it bit for bit
   on every program where this one terminates (it loops forever once a
   width cap meets counts past the float range). *)
module Two_pass = struct
  module A1 = Bigarray.Array1

  let check_args ~eps ~width =
    if not (Float.is_finite eps) || eps <= 0. || eps > 1. then
      invalid_arg "Gkm.count: eps must be in (0, 1]";
    if width < 1 then invalid_arg "Gkm.count: width must be >= 1"

  (* Layer buffers: int slots 0/1 ping-pong the kept breakpoints, float
     slots 0/1 the cumulative counts; slot 2 of each holds the raw (true)
     successor CDF before sparsification, so a width overrun can re-sparsify
     from it with a coarser delta without recomputing the merge. *)
  let count_in ?(width = max_int) ~eps scratch robp : Gkm.result =
    check_args ~eps ~width;
    let n = Robp.size robp in
    let cap = Robp.capacity robp in
    let delta0 = eps /. (2. *. float_of_int (n + 1)) in
    let p = ref 0 in
    let m = ref 1 in
    let xcur = ref (Count_scratch.int_slot_raw scratch 0 1) in
    let ccur = ref (Count_scratch.float_slot_raw scratch 0 1) in
    A1.unsafe_set !xcur 0 0;
    A1.unsafe_set !ccur 0 1.;
    let err = ref 1. in
    let max_width = ref 1 in
    let merges = ref 0 in
    let max_delta = ref 0. in
    for i = 0 to n - 1 do
      let wi = Robp.weight robp i in
      let mc = !m in
      if wi = 0 then begin
        (* Take/skip coincide: the CDF doubles pointwise; no new
           breakpoints, no rounding, no error. *)
        let c = !ccur in
        for j = 0 to mc - 1 do
          A1.unsafe_set c j (2. *. A1.unsafe_get c j)
        done
      end
      else begin
        let x = !xcur and c = !ccur in
        (* True successor CDF G(v) = F(v) + F(v - wi) at every candidate
           breakpoint v in {x[j]} u {x[k] + wi <= cap}, ascending merge. *)
        let sb = ref mc in
        while !sb > 0 && A1.unsafe_get x (!sb - 1) + wi > cap do
          decr sb
        done;
        let xraw = Count_scratch.int_slot_raw scratch 2 (mc + !sb) in
        let craw = Count_scratch.float_slot_raw scratch 2 (mc + !sb) in
        let a = ref 0 and b = ref 0 and q = ref (-1) and out = ref 0 in
        while !a < mc || !b < !sb do
          let va = if !a < mc then A1.unsafe_get x !a else max_int in
          let vb = if !b < !sb then A1.unsafe_get x !b + wi else max_int in
          if va <= vb then begin
            (* F(va - wi): advance the trailing pointer q over x. *)
            let lim = va - wi in
            while !q + 1 < mc && A1.unsafe_get x (!q + 1) <= lim do
              incr q
            done;
            let below = if !q >= 0 then A1.unsafe_get c !q else 0. in
            A1.unsafe_set xraw !out va;
            A1.unsafe_set craw !out (A1.unsafe_get c !a +. below);
            incr a;
            if vb = va then incr b;
            incr out
          end
          else begin
            (* vb = x[b] + wi strictly between orig breakpoints: the last
               orig <= vb is a - 1 (a >= 1 since x[0] = 0 <= vb was emitted). *)
            A1.unsafe_set xraw !out vb;
            A1.unsafe_set craw !out
              (A1.unsafe_get c (!a - 1) +. A1.unsafe_get c !b);
            incr b;
            incr out
          end
        done;
        let raw = !out in
        (* Sparsify raw -> next, doubling delta until the width budget
           holds.  Keeping only jumps >= (1 + delta) under-counts by at
           most (1 + delta) at any point, which is the layer's certified
           error factor. *)
        let qslot = 1 - !p in
        let xnext = Count_scratch.int_slot_raw scratch qslot raw in
        let cnext = Count_scratch.float_slot_raw scratch qslot raw in
        let delta = ref delta0 in
        let kept = ref raw in
        let continue = ref true in
        while !continue do
          let threshold = 1. +. !delta in
          let last = ref neg_infinity in
          let k = ref 0 in
          for j = 0 to raw - 1 do
            let g = A1.unsafe_get craw j in
            if j = 0 || g >= !last *. threshold then begin
              A1.unsafe_set xnext !k (A1.unsafe_get xraw j);
              A1.unsafe_set cnext !k g;
              last := g;
              incr k
            end
          done;
          if !k <= width then begin
            kept := !k;
            continue := false
          end
          else delta := 2. *. !delta
        done;
        err := !err *. (1. +. !delta);
        if !delta > !max_delta then max_delta := !delta;
        merges := !merges + (raw - !kept);
        if !kept > !max_width then max_width := !kept;
        p := qslot;
        m := !kept;
        xcur := xnext;
        ccur := cnext
      end
    done;
    let lower = A1.unsafe_get !ccur (!m - 1) in
    let bound = Robp.solutions_bound robp in
    let upper = Float.min (lower *. !err) bound in
    (* Geometric mean as a product of roots: [lower *. upper] can overflow
       near log2 Z ~ 512 even when the mean itself is representable.  When
       the certified ceiling overflows outright (a width cap that compounded
       the per-layer ratio past the float range) the mean is meaningless;
       fall back on the certified floor. *)
    let estimate =
      if Float.is_finite upper then sqrt lower *. sqrt upper else lower
    in
    {
      estimate;
      lower;
      upper;
      width = !max_width;
      width_budget = width;
      merges = !merges;
      delta = !max_delta;
      queries = n;
    }
end

(* ---------- ROBP ---------- *)

let test_robp_read_once () =
  let weights = [| 3; 1; 4; 1; 5 |] in
  let oracle, counters = oracle_of_weights weights ~capacity:7 in
  let robp = Robp.build oracle in
  Alcotest.(check int) "one query per item" 5 (Counters.index_queries counters);
  Alcotest.(check int) "no samples" 0 (Counters.weighted_samples counters);
  Alcotest.(check int) "size" 5 (Robp.size robp);
  Alcotest.(check int) "capacity" 7 (Robp.capacity robp);
  Alcotest.(check int) "weight 2" 4 (Robp.weight robp 2);
  Alcotest.(check int) "total weight" 14 (Robp.total_weight robp);
  Alcotest.(check int) "width bound" 8 (Robp.width_bound robp)

let test_robp_rejects_fractional () =
  let counters = Counters.create () in
  let inst = Instance.of_pairs [ (1., 0.5) ] ~capacity:1. in
  let oracle = Query_oracle.of_instance ~counters inst in
  Alcotest.(check bool) "fractional weight rejected" true
    (try
       ignore (Robp.build oracle);
       false
     with Invalid_argument _ -> true)

let test_robp_floors_capacity () =
  let counters = Counters.create () in
  let inst = Instance.of_pairs [ (1., 2.) ] ~capacity:7.9 in
  let oracle = Query_oracle.of_instance ~counters inst in
  Alcotest.(check int) "capacity floored" 7 (Robp.capacity (Robp.build oracle))

let test_robp_budget_wall () =
  (* Counting is read-once: n - 1 queries are not enough to build the
     program, which is the Omega(n) wall E14 demonstrates. *)
  let oracle, _ = oracle_of_weights [| 1; 2; 3; 4 |] ~capacity:5 in
  let starved = Query_oracle.with_budget oracle 3 in
  Alcotest.check_raises "budget exhausted" Query_oracle.Budget_exhausted (fun () ->
      ignore (Robp.build starved))

(* ---------- exact engines ---------- *)

let exact_cases =
  [
    ("pentagon", [| 1; 2; 3 |], 3, 5.);
    ("single fits", [| 5 |], 5, 2.);
    ("single capacity 0", [| 5 |], 0, 1.);
    ("zero-weight at capacity 0", [| 0; 3 |], 0, 2.);
    ("all too heavy", [| 10; 12; 11 |], 5, 1.);
    ("duplicates", [| 2; 2; 2; 2 |], 4, 11.);
    ("everything fits", [| 1; 1; 1 |], 10, 8.);
  ]

let test_exact_known_counts () =
  List.iter
    (fun (name, weights, capacity, expect) ->
      let robp = robp_of weights ~capacity in
      Alcotest.(check (float 0.)) (name ^ " brute") expect (brute weights ~capacity);
      Alcotest.(check (float 0.)) (name ^ " enumerate") expect (Exact.enumerate robp);
      Alcotest.(check (float 0.)) (name ^ " meet-middle") expect (Exact.meet_middle robp);
      Alcotest.(check (float 0.)) (name ^ " state-dp") expect (State_dp.count robp);
      Alcotest.(check (float 0.))
        (name ^ " sampler")
        expect
        (Sampler.count (Sampler.of_robp robp)))
    exact_cases

let test_exact_oracle_dispatch () =
  let weights = [| 4; 4; 2; 7; 1; 3 |] in
  let oracle, counters = oracle_of_weights weights ~capacity:9 in
  let z = Exact.count oracle in
  Alcotest.(check (float 0.)) "dispatch = brute" (brute weights ~capacity:9) z;
  Alcotest.(check int) "n queries" 6 (Counters.index_queries counters)

(* ---------- approximate counters: edges ---------- *)

let check_bracket name ~eps ~exact ~estimate ~lower ~upper =
  Alcotest.(check bool)
    (name ^ " lower <= Z")
    true
    (lower <= exact +. 1e-9);
  Alcotest.(check bool)
    (name ^ " Z <= upper")
    true
    (exact <= upper +. 1e-9);
  let ratio = estimate /. exact in
  Alcotest.(check bool)
    (Printf.sprintf "%s within (1 +- %g): ratio %g" name eps ratio)
    true
    (ratio >= 1. /. (1. +. eps) -. 1e-9 && ratio <= 1. +. eps +. 1e-9)

let test_approx_edges () =
  List.iter
    (fun (name, weights, capacity, expect) ->
      let robp = robp_of weights ~capacity in
      let scratch = Count_scratch.create () in
      let g = Gkm.count_in ~eps:0.2 scratch robp in
      check_bracket (name ^ " gkm") ~eps:0.2 ~exact:expect ~estimate:g.Gkm.estimate
        ~lower:g.Gkm.lower ~upper:g.Gkm.upper;
      let s = Svv.count_in ~eps:0.4 scratch robp in
      check_bracket (name ^ " svv") ~eps:0.4 ~exact:expect ~estimate:s.Svv.estimate
        ~lower:s.Svv.lower ~upper:s.Svv.upper)
    exact_cases

let test_gkm_width_budget () =
  let weights = Array.init 18 (fun i -> 1 + ((i * 7) mod 13)) in
  let robp = robp_of weights ~capacity:40 in
  let exact = State_dp.count robp in
  let scratch = Count_scratch.create () in
  let r = Gkm.count_in ~width:8 ~eps:0.2 scratch robp in
  Alcotest.(check bool) "width respected" true (r.Gkm.width <= 8);
  Alcotest.(check bool) "bracket holds under cap" true
    (r.Gkm.lower <= exact && exact <= r.Gkm.upper);
  Alcotest.(check bool) "coarsened delta recorded" true (r.Gkm.delta > 0.)

let test_scratch_reuse_bit_identical () =
  let r1 = robp_of [| 3; 5; 2; 8; 1 |] ~capacity:9 in
  let r2 = robp_of (Array.init 16 (fun i -> 1 + (i mod 5))) ~capacity:22 in
  let shared = Count_scratch.create () in
  let a = Gkm.count_in ~eps:0.15 shared r1 in
  let _ = Gkm.count_in ~eps:0.15 shared r2 in
  let _ = Svv.count_in ~eps:0.5 shared r2 in
  let _ = State_dp.count_in shared r2 in
  let b = Gkm.count_in ~eps:0.15 shared r1 in
  let fresh = Gkm.count_in ~eps:0.15 (Count_scratch.create ()) r1 in
  Alcotest.(check bool) "reused scratch = first run" true (a = b);
  Alcotest.(check bool) "reused scratch = fresh scratch" true (a = fresh)

(* Field-by-field, floats by bit pattern: [=] would equate 0. and -0. *)
let same_result (a : Gkm.result) (b : Gkm.result) =
  let bits = Int64.bits_of_float in
  Int64.equal (bits a.estimate) (bits b.estimate)
  && Int64.equal (bits a.lower) (bits b.lower)
  && Int64.equal (bits a.upper) (bits b.upper)
  && a.width = b.width
  && a.width_budget = b.width_budget
  && a.merges = b.merges
  && Int64.equal (bits a.delta) (bits b.delta)
  && a.queries = b.queries

(* The bench/main.ml counting programs: w ~ U[1, 64], capacity sum/3. *)
let bench_robp n =
  let rng = Rng.create 94L in
  let w = Array.init n (fun _ -> Rng.int_range rng 1 64) in
  robp_of w ~capacity:(Array.fold_left ( + ) 0 w / 3)

let check_pin name (r : Gkm.result) ~lower ~upper ~estimate ~width ~merges ~delta =
  let bits name expect got =
    Alcotest.(check string) name (Printf.sprintf "%h" expect) (Printf.sprintf "%h" got)
  in
  bits (name ^ " lower") lower r.Gkm.lower;
  bits (name ^ " upper") upper r.Gkm.upper;
  bits (name ^ " estimate") estimate r.Gkm.estimate;
  Alcotest.(check int) (name ^ " width") width r.Gkm.width;
  Alcotest.(check int) (name ^ " merges") merges r.Gkm.merges;
  bits (name ^ " delta") delta r.Gkm.delta

(* Outputs of the two-pass kernel on the bench programs. *)
let test_gkm_bench_pins () =
  let scratch = Count_scratch.create () in
  check_pin "n=200 eps 0.25"
    (Gkm.count_in ~eps:0.25 scratch (bench_robp 200))
    ~lower:0x1.33196c4184b36p+184 ~upper:0x1.5bc262a7ad3d7p+184
    ~estimate:0x1.46cc2cf5ce6acp+184 ~width:2174 ~merges:3897
    ~delta:0x1.460cbc7f5cf9ap-11;
  check_pin "n=500 eps 0.25"
    (Gkm.count_in ~eps:0.25 scratch (bench_robp 500))
    ~lower:0x1.34c4de83674bcp+465 ~upper:0x1.5dc9d53e8e9afp+465
    ~estimate:0x1.48a3acac649bep+465 ~width:5350 ~merges:14689
    ~delta:0x1.059eea0727586p-12;
  check_pin "n=1000 width 64"
    (Gkm.count_in ~width:64 ~eps:0.25 scratch (bench_robp 1000))
    ~lower:0x1.7bbfbe85d99afp+238 ~upper:0x1p+1000
    ~estimate:0x1.37cb5d6a6b50cp+619 ~width:64 ~merges:59063
    ~delta:0x1.05e1d27a3ee9cp+0

(* At layer 1198 the kept counts are +inf: a pass at delta = +inf still
   keeps 1010 of them, past the width cap, and doubling delta can no
   longer help (the two-pass kernel loops forever here). *)
let test_gkm_overflow_raises () =
  let robp = bench_robp 1500 in
  Alcotest.(check bool) "Invalid_argument" true
    (try
       ignore (Gkm.count_in ~width:1000 ~eps:0.25 (Count_scratch.create ()) robp);
       false
     with Invalid_argument _ -> true)

(* A warmed scratch leaves only the result record (19 words) to the minor
   heap; per-element float boxing or a per-layer closure would not fit. *)
let test_gkm_allocation_free () =
  let robp = bench_robp 500 in
  let scratch = Count_scratch.create () in
  List.iter
    (fun (name, width) ->
      ignore (Gkm.count_in ?width ~eps:0.25 scratch robp);
      let before = Gc.minor_words () in
      ignore (Gkm.count_in ?width ~eps:0.25 scratch robp);
      let words = Gc.minor_words () -. before in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %g minor words <= 32" name words)
        true (words <= 32.))
    [ ("no width", None); ("width 64", Some 64) ]

(* ---------- sampler ---------- *)

let test_sampler_draws () =
  let weights = [| 1; 2; 3 |] in
  let capacity = 3 in
  let sampler = Sampler.of_robp (robp_of weights ~capacity) in
  let z = int_of_float (Sampler.count sampler) in
  Alcotest.(check int) "count" 5 z;
  let rng = Rng.of_int 42 in
  let draws = Sampler.draw_many sampler rng 2000 in
  let freq = Hashtbl.create 8 in
  Array.iter
    (fun subset ->
      let key = String.concat "," (List.map string_of_int (Array.to_list subset)) in
      let w = Array.fold_left (fun acc i -> acc + weights.(i)) 0 subset in
      Alcotest.(check bool) "feasible" true (w <= capacity);
      Hashtbl.replace freq key (1 + Option.value ~default:0 (Hashtbl.find_opt freq key)))
    draws;
  Alcotest.(check int) "all 5 subsets appear" 5 (Hashtbl.length freq);
  Hashtbl.iter
    (fun key n ->
      let p = float_of_int n /. 2000. in
      Alcotest.(check bool)
        (Printf.sprintf "subset {%s} frequency %g near 1/5" key p)
        true
        (Float.abs (p -. 0.2) < 0.05))
    freq;
  (* determinism: a fresh generator with the same seed replays the draws *)
  let again = Sampler.draw_many sampler (Rng.of_int 42) 2000 in
  Alcotest.(check bool) "seeded draws replay" true (draws = again)

(* ---------- obs / phases ---------- *)

let test_phases_traced () =
  let sink = Obs.recorder () in
  let oracle, _ = oracle_of_weights ~sink [| 1; 2; 3; 4 |] ~capacity:6 in
  let _ = Gkm.count ~sink ~eps:0.2 oracle in
  let events = Obs.events sink in
  let enters =
    List.filter_map (function Event.Phase_enter p -> Some p | _ -> None) events
  in
  let queries =
    List.length
      (List.filter (function Event.Oracle_query _ -> true | _ -> false) events)
  in
  Alcotest.(check (list string)) "phase nesting" [ "gkm-count"; "robp-build" ] enters;
  Alcotest.(check int) "each probe traced" 4 queries

(* ---------- report ---------- *)

let test_report_roundtrip () =
  let t = Report.create () in
  Report.add t
    (Report.row ~experiment:"e13" ~label:"uniform eps=0.1"
       ~fields:[ ("ratio", Json.Num 1.01) ]);
  Report.add t
    (Report.row ~experiment:"e14" ~label:"n=64" ~fields:[ ("queries", Json.Num 64.) ]);
  let json = Report.to_json t in
  Alcotest.(check int) "rows kept in order" 2 (List.length (Report.rows t));
  let str = Json.to_string json in
  Alcotest.(check bool) "schema present" true
    (Json.member "schema" (Json.parse str) = Some (Json.Str Report.schema));
  Alcotest.(check string) "printer deterministic" str (Json.to_string (Report.to_json t))

(* ---------- qcheck differential suite ---------- *)

let weights_arb ~max_n ~max_w ~max_cap =
  QCheck.make
    ~print:(fun (w, c) ->
      Printf.sprintf "weights=[%s] cap=%d"
        (String.concat ";" (Array.to_list (Array.map string_of_int w)))
        c)
    QCheck.Gen.(
      let* n = int_range 1 max_n in
      let* weights = array_repeat n (int_range 0 max_w) in
      let* capacity = int_range 0 max_cap in
      return (weights, capacity))

let prop_exact_engines_agree =
  QCheck.Test.make ~name:"enumerate = meet-middle = state-dp = sampler" ~count:200
    (weights_arb ~max_n:14 ~max_w:12 ~max_cap:40)
    (fun (weights, capacity) ->
      let robp = robp_of weights ~capacity in
      let z = Exact.enumerate robp in
      Float.equal z (Exact.meet_middle robp)
      && Float.equal z (State_dp.count robp)
      && Float.equal z (Sampler.count (Sampler.of_robp robp)))

let approx_within ~eps (weights, capacity) =
  let robp = robp_of weights ~capacity in
  let z = Exact.meet_middle robp in
  let scratch = Count_scratch.create () in
  let g = Gkm.count_in ~eps scratch robp in
  let s = Svv.count_in ~eps scratch robp in
  let ok_bracket lower upper = lower <= z +. 1e-9 && z <= upper +. 1e-9 in
  let ok_ratio estimate =
    let r = estimate /. z in
    r >= 1. /. (1. +. eps) -. 1e-9 && r <= 1. +. eps +. 1e-9
  in
  ok_bracket g.Gkm.lower g.Gkm.upper
  && ok_ratio g.Gkm.estimate
  && ok_bracket s.Svv.lower s.Svv.upper
  && ok_ratio s.Svv.estimate

let prop_approx_tight =
  QCheck.Test.make ~name:"gkm & svv within (1 +- 0.1) of exact" ~count:120
    (weights_arb ~max_n:14 ~max_w:12 ~max_cap:40)
    (approx_within ~eps:0.1)

let prop_approx_loose =
  QCheck.Test.make ~name:"gkm & svv within (1 +- 0.5) of exact" ~count:120
    (weights_arb ~max_n:16 ~max_w:20 ~max_cap:60)
    (approx_within ~eps:0.5)

let prop_gkm_capped_bracket =
  QCheck.Test.make ~name:"width-capped gkm bracket still certified" ~count:120
    (weights_arb ~max_n:16 ~max_w:20 ~max_cap:60)
    (fun (weights, capacity) ->
      let robp = robp_of weights ~capacity in
      let z = Exact.meet_middle robp in
      let r = Gkm.count_in ~width:6 ~eps:0.3 (Count_scratch.create ()) robp in
      r.Gkm.width <= 6 && r.Gkm.lower <= z +. 1e-9 && z <= r.Gkm.upper +. 1e-9)

(* Programs for the differential: about 1/8 zero weights, maximum weight
   4 (dense CDFs), 100 or 100000 (sparse ones), any capacity. *)
let gkm_program_arb =
  QCheck.make
    ~print:(fun (weights, capacity, eps, width) ->
      Printf.sprintf "weights=[%s] cap=%d eps=%g width=%s"
        (String.concat ";" (Array.to_list (Array.map string_of_int weights)))
        capacity eps
        (match width with None -> "none" | Some w -> string_of_int w))
    QCheck.Gen.(
      let* n = int_range 1 120 in
      let* max_w = oneofl [ 4; 100; 100_000 ] in
      let* weights =
        array_repeat n
          (let* zero = int_bound 7 in
           if zero = 0 then return 0 else int_range 1 max_w)
      in
      let* capacity = int_range 0 (Array.fold_left ( + ) 0 weights) in
      let* eps = oneofl [ 0.01; 0.1; 0.25; 0.5; 1. ] in
      let* width = option ~ratio:0.5 (int_range 1 40) in
      return (weights, capacity, eps, width))

let reused_scratch = Count_scratch.create ()

let prop_gkm_matches_two_pass =
  QCheck.Test.make ~name:"gkm count_in = two-pass kernel, bit for bit" ~count:200
    gkm_program_arb
    (fun (weights, capacity, eps, width) ->
      let robp = robp_of weights ~capacity in
      let expect = Two_pass.count_in ?width ~eps (Count_scratch.create ()) robp in
      same_result expect (Gkm.count_in ?width ~eps (Count_scratch.create ()) robp)
      && same_result expect (Gkm.count_in ?width ~eps reused_scratch robp))

let prop_robp_oracle_matches_direct =
  QCheck.Test.make ~name:"oracle-built robp = of_weights (and bills n queries)"
    ~count:120
    (weights_arb ~max_n:12 ~max_w:12 ~max_cap:40)
    (fun (weights, capacity) ->
      let oracle, counters = oracle_of_weights weights ~capacity in
      let via_oracle = Robp.build oracle in
      let direct = robp_of weights ~capacity in
      Counters.index_queries counters = Array.length weights
      && Robp.capacity via_oracle = Robp.capacity direct
      && Float.equal (State_dp.count via_oracle) (State_dp.count direct))

let () =
  Alcotest.run "counting"
    [
      ( "robp",
        [
          Alcotest.test_case "read-once build" `Quick test_robp_read_once;
          Alcotest.test_case "rejects fractional weights" `Quick test_robp_rejects_fractional;
          Alcotest.test_case "floors capacity" `Quick test_robp_floors_capacity;
          Alcotest.test_case "budget wall at n-1" `Quick test_robp_budget_wall;
        ] );
      ( "exact",
        [
          Alcotest.test_case "known counts" `Quick test_exact_known_counts;
          Alcotest.test_case "oracle dispatch" `Quick test_exact_oracle_dispatch;
        ] );
      ( "approx",
        [
          Alcotest.test_case "edge cases bracketed" `Quick test_approx_edges;
          Alcotest.test_case "gkm width budget" `Quick test_gkm_width_budget;
          Alcotest.test_case "scratch reuse bit-identical" `Quick
            test_scratch_reuse_bit_identical;
          Alcotest.test_case "gkm bench programs pinned" `Quick test_gkm_bench_pins;
          Alcotest.test_case "gkm overflowed width cap raises" `Quick
            test_gkm_overflow_raises;
          Alcotest.test_case "gkm allocation-free on warm scratch" `Quick
            test_gkm_allocation_free;
        ] );
      ( "sampler",
        [ Alcotest.test_case "uniform + deterministic" `Quick test_sampler_draws ] );
      ("obs", [ Alcotest.test_case "phases traced" `Quick test_phases_traced ]);
      ("report", [ Alcotest.test_case "roundtrip" `Quick test_report_roundtrip ]);
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_exact_engines_agree;
          QCheck_alcotest.to_alcotest prop_approx_tight;
          QCheck_alcotest.to_alcotest prop_approx_loose;
          QCheck_alcotest.to_alcotest prop_gkm_capped_bracket;
          QCheck_alcotest.to_alcotest prop_gkm_matches_two_pass;
          QCheck_alcotest.to_alcotest prop_robp_oracle_matches_direct;
        ] );
    ]
