module Json = Lk_benchkit.Json
module Benchkit = Lk_benchkit.Benchkit
module Stopwatch = Lk_benchkit.Stopwatch

(* ---------- Json ---------- *)

let test_json_print_known () =
  let v =
    Json.Obj
      [
        ("s", Json.Str "a\"b\\c\nd");
        ("n", Json.Num 1.5);
        ("i", Json.Num 3.);
        ("t", Json.Bool true);
        ("z", Json.Null);
        ("l", Json.Arr [ Json.Num 1.; Json.Num 2. ]);
        ("e", Json.Arr []);
        ("o", Json.Obj []);
      ]
  in
  let s = Json.to_string v in
  Alcotest.(check bool) "escapes quote" true
    (let rec mem i =
       i + 4 <= String.length s && (String.sub s i 4 = "\\\"b\\" || mem (i + 1))
     in
     mem 0);
  Alcotest.(check bool) "integer floats print bare" true
    (let rec mem i =
       i + 8 <= String.length s && (String.sub s i 8 = "\"i\": 3,\n" || mem (i + 1))
     in
     mem 0)

let test_json_round_trip_known () =
  let v =
    Json.Obj
      [
        ("label", Json.Str "x");
        ("pi", Json.Num 3.14159265358979312);
        ("neg", Json.Num (-0.001));
        ("big", Json.Num 1e22);
        ("list", Json.Arr [ Json.Null; Json.Bool false; Json.Str "" ]);
      ]
  in
  Alcotest.(check bool) "parse (print v) = v" true (Json.parse (Json.to_string v) = v)

let test_json_parse_errors () =
  List.iter
    (fun bad ->
      match Json.parse bad with
      | exception Json.Parse_error _ -> ()
      | _ -> Alcotest.failf "accepted malformed input %S" bad)
    [ "{"; "[1,"; "\"unterminated"; "nul"; "{\"a\" 1}"; "1 2"; ""; "\"\\uZZZZ\""; "\"\\u12\"" ]

let test_json_rejects_nan () =
  Alcotest.check_raises "nan" (Invalid_argument "Json: nan/infinity have no JSON representation")
    (fun () -> ignore (Json.to_string (Json.Num Float.nan)))

let json_gen =
  QCheck.Gen.(
    sized_size (int_range 0 4) @@ fix (fun self n ->
        let leaf =
          oneof
            [
              return Json.Null;
              map (fun b -> Json.Bool b) bool;
              (* integers and dyadic fractions round-trip exactly through
                 %.17g; arbitrary floats do too, but these keep failures
                 readable *)
              map (fun i -> Json.Num (float_of_int i)) (int_range (-1000) 1000);
              map (fun i -> Json.Num (float_of_int i /. 64.)) (int_range (-1000) 1000);
              map (fun s -> Json.Str s) (string_size ~gen:printable (int_range 0 8));
            ]
        in
        if n = 0 then leaf
        else
          oneof
            [
              leaf;
              map (fun l -> Json.Arr l) (list_size (int_range 0 4) (self (n - 1)));
              map
                (fun kvs ->
                  (* duplicate keys would make round-tripping ambiguous *)
                  let seen = Hashtbl.create 8 in
                  Json.Obj
                    (List.filter
                       (fun (k, _) ->
                         if Hashtbl.mem seen k then false
                         else begin
                           Hashtbl.add seen k ();
                           true
                         end)
                       kvs))
                (list_size (int_range 0 4)
                   (pair (string_size ~gen:printable (int_range 0 6)) (self (n - 1))));
            ]))

let prop_json_round_trip =
  QCheck.Test.make ~name:"parse (to_string t) = t" ~count:500
    (QCheck.make ~print:Json.to_string json_gen) (fun v ->
      Json.parse (Json.to_string v) = v)

(* ---------- Benchkit files ---------- *)

let sample_file =
  {
    Benchkit.label = "unit";
    quota_s = 0.5;
    limit = 100;
    results =
      [
        { Benchkit.name = "a"; ns_per_run = 100.; r_square = Some 0.99 };
        { Benchkit.name = "b"; ns_per_run = 2048.25; r_square = None };
      ];
  }

let test_file_round_trip () =
  match Benchkit.of_json (Json.parse (Json.to_string (Benchkit.to_json sample_file))) with
  | Ok f -> Alcotest.(check bool) "round trip" true (f = sample_file)
  | Error e -> Alcotest.fail e

let test_file_save_load () =
  let path = Filename.temp_file "benchkit" ".json" in
  Benchkit.save path sample_file;
  (match Benchkit.load path with
  | Ok f -> Alcotest.(check bool) "load (save f) = f" true (f = sample_file)
  | Error e -> Alcotest.fail e);
  Sys.remove path

let test_file_schema_rejected () =
  let wrong = Json.Obj [ ("schema", Json.Str "other/9") ] in
  (match Benchkit.of_json wrong with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted wrong schema");
  match Benchkit.load "/nonexistent/benchkit.json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "loaded a missing file"

(* Every load error names the file once, in front of the reason. *)
let test_file_load_errors () =
  let path = Filename.temp_file "benchkit" ".json" in
  let error_of contents =
    Out_channel.with_open_bin path (fun oc -> output_string oc contents);
    match Benchkit.load path with Ok _ -> "<loaded>" | Error m -> m
  in
  Alcotest.(check string) "malformed bytes"
    (path ^ ": expected a number (at offset 0)") (error_of "oops");
  Alcotest.(check string) "wrong schema"
    (path ^ ": not a lca-knapsack-bench/1 file")
    (error_of {|{"schema": "other/9"}|});
  Sys.remove path;
  Alcotest.(check string) "missing file" (path ^ ": No such file or directory")
    (match Benchkit.load path with Ok _ -> "<loaded>" | Error m -> m)

(* ---------- comparison / regression gate ---------- *)

let file_of results = { sample_file with Benchkit.results }

(* Gated rows: a clean fit on both sides keeps the ratio gate armed. *)
let r name ns = { Benchkit.name; ns_per_run = ns; r_square = Some 1.0 }

(* Ungated rows: no fit at all (one-shot timings). *)
let r_unfit name ns = { Benchkit.name; ns_per_run = ns; r_square = None }

let test_compare_self_clean () =
  let c =
    Benchkit.compare_files ~threshold:0.15 ~baseline:sample_file ~candidate:sample_file
  in
  Alcotest.(check int) "no regressions" 0 (List.length c.Benchkit.regressions);
  Alcotest.(check int) "all benches compared" 2 (List.length c.Benchkit.deltas);
  Alcotest.(check int) "nothing missing" 0 (List.length c.Benchkit.missing);
  Alcotest.(check int) "nothing added" 0 (List.length c.Benchkit.added)

let test_compare_regression_threshold () =
  let baseline = file_of [ r "a" 100.; r "b" 200. ] in
  let candidate = file_of [ r "a" 100.; r "b" 240. ] in
  (* +20% trips a 15% gate and passes a 25% gate *)
  let c15 = Benchkit.compare_files ~threshold:0.15 ~baseline ~candidate in
  (match c15.Benchkit.regressions with
  | [ d ] ->
      Alcotest.(check string) "the regressed bench" "b" d.Benchkit.bench;
      Alcotest.(check (float 1e-9)) "ratio" 1.2 d.Benchkit.ratio
  | l -> Alcotest.failf "expected one regression, got %d" (List.length l));
  let c25 = Benchkit.compare_files ~threshold:0.25 ~baseline ~candidate in
  Alcotest.(check int) "25%% gate passes" 0 (List.length c25.Benchkit.regressions);
  (* an improvement is never a regression *)
  let faster = file_of [ r "a" 10.; r "b" 20. ] in
  let c = Benchkit.compare_files ~threshold:0.15 ~baseline ~candidate:faster in
  Alcotest.(check int) "improvements pass" 0 (List.length c.Benchkit.regressions)

let test_compare_low_fit_downgrades () =
  (* A +100% blowup on a row with a null or negative r² must not hard-fail
     the gate: it lands in [warnings], with [gated = false]. *)
  let check_downgraded label baseline candidate =
    let c = Benchkit.compare_files ~threshold:0.15 ~baseline ~candidate in
    Alcotest.(check int) (label ^ ": no regressions") 0 (List.length c.Benchkit.regressions);
    match c.Benchkit.warnings with
    | [ d ] ->
        Alcotest.(check string) (label ^ ": warned bench") "slow" d.Benchkit.bench;
        Alcotest.(check bool) (label ^ ": ungated") false d.Benchkit.gated
    | l -> Alcotest.failf "%s: expected one warning, got %d" label (List.length l)
  in
  check_downgraded "null candidate"
    (file_of [ r "slow" 100. ])
    (file_of [ r_unfit "slow" 200. ]);
  check_downgraded "null baseline"
    (file_of [ r_unfit "slow" 100. ])
    (file_of [ r "slow" 200. ]);
  check_downgraded "negative fit"
    (file_of [ r "slow" 100. ])
    (file_of [ { Benchkit.name = "slow"; ns_per_run = 200.; r_square = Some (-0.3) } ]);
  (* and an in-threshold low-fit row is neither a regression nor a warning *)
  let c =
    Benchkit.compare_files ~threshold:0.15
      ~baseline:(file_of [ r_unfit "ok" 100. ])
      ~candidate:(file_of [ r_unfit "ok" 104. ])
  in
  Alcotest.(check int) "quiet within threshold" 0 (List.length c.Benchkit.warnings);
  Alcotest.(check int) "no regressions either" 0 (List.length c.Benchkit.regressions)

let test_compare_exact_rows_stay_gated () =
  (* loadgen's exact-metric rows (hit-rates, prepare counts) declare
     r_square = Some 1.0 precisely so that any drift still hard-fails. *)
  let baseline = file_of [ r "loadgen/pool-hit-rate-cold" 0.25 ] in
  let candidate = file_of [ r "loadgen/pool-hit-rate-cold" 0.5 ] in
  let c = Benchkit.compare_files ~threshold:0.15 ~baseline ~candidate in
  (match c.Benchkit.regressions with
  | [ d ] -> Alcotest.(check bool) "gated" true d.Benchkit.gated
  | l -> Alcotest.failf "expected one regression, got %d" (List.length l));
  Alcotest.(check int) "no warnings" 0 (List.length c.Benchkit.warnings)

let test_compare_missing_added () =
  let baseline = file_of [ r "a" 100.; r "gone" 50. ] in
  let candidate = file_of [ r "a" 100.; r "new" 70. ] in
  let c = Benchkit.compare_files ~threshold:0.15 ~baseline ~candidate in
  Alcotest.(check (list string)) "missing" [ "gone" ] c.Benchkit.missing;
  Alcotest.(check (list string)) "added" [ "new" ] c.Benchkit.added;
  Alcotest.(check int) "only the common bench compared" 1 (List.length c.Benchkit.deltas)

(* ---------- Stopwatch ---------- *)

let test_stopwatch_monotone () =
  let sw = Stopwatch.start () in
  let acc = ref 0 in
  for i = 1 to 10_000 do
    acc := !acc + i
  done;
  let ns = Stopwatch.elapsed_ns sw in
  Alcotest.(check bool) "elapsed >= 0" true (ns >= 0.);
  let x, ns' = Stopwatch.time (fun () -> !acc) in
  Alcotest.(check int) "result threaded" 50_005_000 x;
  Alcotest.(check bool) "timed >= 0" true (ns' >= 0.)

let () =
  Alcotest.run "benchkit"
    [
      ( "json",
        [
          Alcotest.test_case "printer" `Quick test_json_print_known;
          Alcotest.test_case "round trip (known)" `Quick test_json_round_trip_known;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "nan rejected" `Quick test_json_rejects_nan;
          QCheck_alcotest.to_alcotest prop_json_round_trip;
        ] );
      ( "files",
        [
          Alcotest.test_case "json round trip" `Quick test_file_round_trip;
          Alcotest.test_case "save/load" `Quick test_file_save_load;
          Alcotest.test_case "schema rejected" `Quick test_file_schema_rejected;
          Alcotest.test_case "load errors name the file once" `Quick test_file_load_errors;
        ] );
      ( "compare",
        [
          Alcotest.test_case "self is clean" `Quick test_compare_self_clean;
          Alcotest.test_case "regression threshold" `Quick test_compare_regression_threshold;
          Alcotest.test_case "low fit downgrades" `Quick test_compare_low_fit_downgrades;
          Alcotest.test_case "exact rows stay gated" `Quick test_compare_exact_rows_stay_gated;
          Alcotest.test_case "missing and added" `Quick test_compare_missing_added;
        ] );
      ( "stopwatch",
        [ Alcotest.test_case "monotone" `Quick test_stopwatch_monotone ] );
    ]
