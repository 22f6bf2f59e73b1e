(* Unit tests of the benchmark's statistics and span accounting. *)

open Lk_e2e

let floats = Alcotest.(array (float 1e-12))
let close = Alcotest.float 1e-12
let one_to n = Array.init n (fun i -> float_of_int (i + 1))

let nearest_rank () =
  let d = one_to 10 in
  Alcotest.(check close) "p50 of 1..10" 5. (Stats.percentile d ~permille:500);
  Alcotest.(check close) "p90 of 1..10" 9. (Stats.percentile d ~permille:900);
  Alcotest.(check close) "p99 of 1..10" 10. (Stats.percentile d ~permille:990);
  Alcotest.(check close) "p1 of one sample" 7. (Stats.percentile [| 7. |] ~permille:1);
  (* integer ranks: no float rounding pushes p99.9 of 1000 to the max *)
  Alcotest.(check int) "p99 rank of 1000" 990 (Stats.rank ~n:1000 ~permille:990);
  Alcotest.(check int) "p99.9 rank of 1000" 999 (Stats.rank ~n:1000 ~permille:999);
  Alcotest.(check int) "p99.9 rank of 1001" 1000 (Stats.rank ~n:1001 ~permille:999);
  Alcotest.(check int) "p99.9 rank of 1002" 1001 (Stats.rank ~n:1002 ~permille:999);
  Alcotest.check_raises "no samples" (Invalid_argument "Stats.rank: no samples") (fun () ->
      ignore (Stats.rank ~n:0 ~permille:500))

let supported_tail () =
  let check n expected =
    Alcotest.(check (option int)) (Printf.sprintf "n=%d" n) expected (Stats.supported_tail n)
  in
  check 19 None;
  check 20 (Some 500);
  check 100 (Some 900);
  check 999 (Some 950);
  check 1000 (Some 990);
  check 9999 (Some 990);
  check 10000 (Some 999)

let quartiles () =
  (* reference values from Python's statistics.quantiles(xs, n=4) *)
  let check name xs (q1, q2, q3) =
    let a, b, c = Stats.quartiles xs in
    Alcotest.(check floats) name [| q1; q2; q3 |] [| a; b; c |]
  in
  check "1..10" (one_to 10) (2.75, 5.5, 8.25);
  check "1..5" (one_to 5) (1.5, 3.0, 4.5);
  check "two samples" [| 3.; 1. |] (0.5, 2.0, 3.5);
  check "unsorted" [| 0.5; 0.25; 4.; 2.; 1.; 8.; 16. |] (0.5, 2.0, 8.0);
  Alcotest.(check close) "median, even count" 2.5 (Stats.median [| 4.; 1.; 3.; 2. |]);
  Alcotest.(check close) "spread of 1..10" 1.0 (Stats.spread (one_to 10))

let quietest () =
  (* 100 slices of 2, slice k = [| m; m + 0.5 |] with m = (37 k) mod 100
     (a permutation of 0..99): the quietest five are the slices with
     m = 0..4, pooled in order of their medians *)
  let pair m = [| float_of_int m; float_of_int m +. 0.5 |] in
  let pairs ms = Array.concat (List.map pair ms) in
  let a = Array.concat (List.init 100 (fun k -> pair (37 * k mod 100))) in
  Alcotest.(check floats) "by median" (pairs [ 0; 1; 2; 3; 4 ]) (Stats.quietest ~by:Stats.median a);
  (* a slice with a low median but one slow sample ranks last by mean *)
  let b = Array.copy a in
  b.(1) <- 1e6;
  Alcotest.(check floats) "by mean skips the slow slice" (pairs [ 1; 2; 3; 4; 5 ])
    (Stats.quietest ~by:Stats.mean b);
  (* 250 samples: slices of 2 or 3, cut at w * 250 / 100; the quiet
     samples are the last 13, slices 95..99 *)
  let c = Array.init 250 (fun i -> if i < 237 then 1000. else float_of_int i) in
  Alcotest.(check floats) "uneven slices"
    (Array.init 13 (fun i -> float_of_int (i + 237)))
    (Stats.quietest ~by:Stats.median c);
  Alcotest.(check floats) "fewer samples than slices: all" [| 4.; 2. |]
    (Stats.quietest ~by:Stats.median [| 4.; 2. |]);
  Alcotest.(check floats) "fastest third of nine" [| 1.; 2.; 3. |]
    (Stats.fastest_third [| 9.; 5.; 1.; 8.; 4.; 2.; 7.; 3.; 6. |]);
  Alcotest.(check floats) "fastest third of four" [| 1.; 2. |]
    (Stats.fastest_third [| 4.; 2.; 3.; 1. |])

let span ?(request = 0) ?(parent = -1) id name dur_ns =
  { Span.request; id; parent; name; dur_ns; counts = [] }

let self_time () =
  let root = span 0 "root" 100. in
  let a = span ~parent:0 1 "a" 30. in
  let b = span ~parent:0 2 "b" 20. in
  let c = span ~parent:1 3 "c" 10. in
  (* same parent id, other request: not a child *)
  let stray = span ~request:1 ~parent:0 4 "a" 99. in
  let spans = [ root; a; b; c; stray ] in
  Alcotest.(check close) "root" 50. (Span.self_ns spans root);
  Alcotest.(check close) "a" 20. (Span.self_ns spans a);
  Alcotest.(check close) "leaf" 10. (Span.self_ns spans c)

let recorder () =
  let r = Span.recorder ~workload:"w" ~names:[ "req"; "child" ] ~keep:false in
  let top = Span.add r "req" 100. ~counts:[ ("answers", 4.) ] in
  ignore (Span.add r ~parent:top "child" 30.);
  ignore (Span.add r ~parent:top "child" 10.);
  Span.finish_request r;
  (* a request without the child span counts 0 for it *)
  ignore (Span.add r "req" 50. ~counts:[ ("answers", 2.) ]);
  Span.finish_request r;
  ignore (Span.add r "req" 70. ~counts:[ ("answers", 1.) ]);
  Span.finish_request r;
  Alcotest.(check int) "requests" 3 (Span.requests r);
  Alcotest.(check close) "children summed per request" 40. (Span.total_sum r "child");
  Alcotest.(check close) "median counts the absent child as 0" 0.
    (Span.total_median r "child");
  Alcotest.(check close) "self median" 60. (Span.self_median r "req");
  Alcotest.(check close) "count sum" 7. (Span.count_sum r "req" "answers");
  Alcotest.check_raises "undeclared name" (Invalid_argument "Span: undeclared span name x")
    (fun () -> ignore (Span.add r "x" 1.))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let result_line () =
  let module J = Lk_benchkit.Json in
  let v =
    J.Obj
      [
        ("correct", J.Bool true);
        ("attempted", J.Num 1000.);
        ("name", J.Str "a\"b\\c");
        ("metrics", J.Obj [ ("x", J.Obj [ ("value", J.Num 0.1); ("unit", J.Str "ms") ]) ]);
      ]
  in
  let line = Line.to_string v in
  Alcotest.(check bool) "one line" false (String.contains line '\n');
  Alcotest.(check bool) "whole numbers print without a fraction" true
    (contains line "\"attempted\": 1000,");
  Alcotest.(check bool) "round trip" true (J.parse line = v)

let () =
  Alcotest.run "e2e"
    [
      ( "stats",
        [
          Alcotest.test_case "nearest-rank percentiles" `Quick nearest_rank;
          Alcotest.test_case "supported tail percentile" `Quick supported_tail;
          Alcotest.test_case "quartiles and spread" `Quick quartiles;
          Alcotest.test_case "quietest slices of a run" `Quick quietest;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time subtraction" `Quick self_time;
          Alcotest.test_case "recorder aggregation" `Quick recorder;
        ] );
      ("output", [ Alcotest.test_case "result line" `Quick result_line ]);
    ]
