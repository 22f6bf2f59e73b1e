module Rng = Lk_util.Rng
module Gen = Lk_workloads.Gen
module Instance = Lk_knapsack.Instance
module Item = Lk_knapsack.Item
module Io = Lk_workloads.Io

let test_family_roundtrip () =
  List.iter
    (fun f ->
      match Gen.of_name (Gen.name f) with
      | Some f' -> Alcotest.(check string) "roundtrip" (Gen.name f) (Gen.name f')
      | None -> Alcotest.failf "family %s not found by name" (Gen.name f))
    Gen.all_families

let test_generate_shape () =
  List.iter
    (fun f ->
      let inst = Gen.generate f (Rng.create 1L) ~n:500 in
      Alcotest.(check int) (Gen.name f ^ " size") 500 (Instance.size inst);
      Alcotest.(check bool) (Gen.name f ^ " capacity > 0") true (Instance.capacity inst > 0.);
      for i = 0 to 499 do
        let it = Instance.item inst i in
        if not (it.Item.profit > 0.) then
          Alcotest.failf "%s: non-positive profit at %d" (Gen.name f) i;
        if not (it.Item.weight >= 0. && Float.is_finite it.Item.weight) then
          Alcotest.failf "%s: bad weight at %d" (Gen.name f) i
      done)
    Gen.all_families

let test_generate_deterministic () =
  List.iter
    (fun f ->
      let a = Gen.generate f (Rng.create 9L) ~n:50 and b = Gen.generate f (Rng.create 9L) ~n:50 in
      for i = 0 to 49 do
        if not (Item.equal (Instance.item a i) (Instance.item b i)) then
          Alcotest.failf "%s: not deterministic at %d" (Gen.name f) i
      done)
    Gen.all_families

let test_capacity_fraction () =
  let inst = Gen.generate ~capacity_fraction:0.25 Gen.Uniform (Rng.create 2L) ~n:200 in
  Alcotest.(check (float 1e-6))
    "capacity = fraction of total weight"
    (0.25 *. Instance.total_weight inst)
    (Instance.capacity inst)

let test_invalid_n () =
  Alcotest.check_raises "n = 0" (Invalid_argument "Gen.generate: n must be positive") (fun () ->
      ignore (Gen.generate Gen.Uniform (Rng.create 1L) ~n:0))

let test_few_large_structure () =
  let inst = Gen.generate Gen.Few_large (Rng.create 3L) ~n:1000 in
  let normalized = Instance.normalize_profits inst in
  (* The top items should dominate: the 20 large items carry most profit. *)
  let profits = Instance.profits normalized in
  Array.sort (fun a b -> compare b a) profits;
  let top20 = Lk_util.Float_utils.sum (Array.sub profits 0 20) in
  Alcotest.(check bool) "top-20 dominate" true (top20 > 0.5)

let test_flat_adversarial_spread () =
  let inst = Gen.generate Gen.Flat_adversarial (Rng.create 4L) ~n:1000 in
  let effs =
    Array.init 1000 (fun i -> Item.efficiency (Instance.item inst i))
  in
  let distinct = Array.to_list effs |> List.sort_uniq compare |> List.length in
  Alcotest.(check bool) "many distinct efficiencies" true (distinct > 900)

(* ---------- Io ---------- *)

let parsed = function Ok inst -> inst | Error msg -> Alcotest.failf "parse failed: %s" msg

let test_io_roundtrip () =
  let inst = Gen.generate Gen.Uniform (Rng.create 5L) ~n:60 in
  let text = Io.to_string inst in
  let back = parsed (Io.of_string text) in
  Alcotest.(check int) "size" (Instance.size inst) (Instance.size back);
  Alcotest.(check (float 1e-12)) "capacity" (Instance.capacity inst) (Instance.capacity back);
  for i = 0 to Instance.size inst - 1 do
    if not (Item.equal (Instance.item inst i) (Instance.item back i)) then
      Alcotest.failf "item %d altered by roundtrip" i
  done

let test_io_comments_and_blanks () =
  let inst = parsed (Io.of_string "# header\n\n10.5\n# item\n3 4\n  1 2  \n") in
  Alcotest.(check int) "two items" 2 (Instance.size inst);
  Alcotest.(check (float 0.)) "capacity" 10.5 (Instance.capacity inst)

let check_error label expected text =
  match Io.of_string text with
  | Ok _ -> Alcotest.failf "%s accepted" label
  | Error msg -> Alcotest.(check string) label expected msg

let test_io_errors () =
  check_error "bad capacity" "line 1: bad capacity \"abc\"" "abc\n1 2\n";
  check_error "bad item" "line 2: expected 'profit weight'" "5\n1 2 3\n";
  check_error "empty" "empty instance: no capacity line" "# only comments\n";
  (* Values the item and instance constructors reject are errors on their
     line too, not exceptions. *)
  check_error "negative weight"
    "line 2: bad item \"1 -2\": Item.make: weight must be finite and non-negative"
    "5\n1 -2\n";
  check_error "nan profit"
    "line 2: bad item \"nan 1\": Item.make: profit must be finite and non-negative"
    "5\nnan 1\n";
  check_error "no items" "line 1: Instance.make: no items" "5\n";
  check_error "infinite capacity"
    "line 1: Instance.make: capacity must be finite and non-negative" "inf\n1 1\n"

let test_io_file_roundtrip () =
  let inst = Gen.generate Gen.Subset_sum (Rng.create 6L) ~n:20 in
  let path = Filename.temp_file "lcakp" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Io.write path inst;
      let back = parsed (Io.read path) in
      Alcotest.(check int) "size" 20 (Instance.size back))

let test_io_read_errors_name_the_file () =
  let path = Filename.temp_file "lcakp" ".inst" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc -> output_string oc "10\n1 x\n");
      (match Io.read path with
      | Ok _ -> Alcotest.fail "bad file accepted"
      | Error msg ->
          Alcotest.(check string) "path and line" (path ^ ": line 2: bad item \"1 x\"") msg);
      let missing = path ^ ".missing" in
      match Io.read missing with
      | Ok _ -> Alcotest.fail "missing file read"
      | Error msg ->
          Alcotest.(check bool) "names the missing file once" true
            (String.starts_with ~prefix:(missing ^ ": ") msg
            && not (String.starts_with ~prefix:(missing ^ ": " ^ missing) msg)))

let prop_io_roundtrip =
  QCheck.Test.make ~name:"io roundtrip preserves instances" ~count:100
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 30) (pair (float_range 0.001 1000.) (float_range 0. 1000.)))
        (float_range 0. 10_000.))
    (fun (pairs, capacity) ->
      let inst = Instance.of_pairs pairs ~capacity in
      let back = parsed (Io.of_string (Io.to_string inst)) in
      Instance.size back = Instance.size inst
      && Instance.capacity back = Instance.capacity inst
      && List.for_all
           (fun i -> Item.equal (Instance.item back i) (Instance.item inst i))
           (List.init (Instance.size inst) Fun.id))

(* Hostile text never raises: arbitrary bytes, and lines of number-like
   tokens (signs, nan, inf, hex, exponents) in the file's shape. *)
let prop_io_never_raises =
  let token =
    QCheck.Gen.oneofl
      [ "0"; "1"; "-1"; "2.5"; "1e308"; "1e309"; "-0"; "nan"; "inf"; "-inf"; "0x1p3"; "x"; "" ]
  in
  let line = QCheck.Gen.(map (String.concat " ") (list_size (int_bound 3) token)) in
  let shaped = QCheck.Gen.(map (String.concat "\n") (list_size (int_bound 6) line)) in
  QCheck.Test.make ~name:"io of_string never raises on hostile text" ~count:500
    (QCheck.make ~print:(Printf.sprintf "%S")
       QCheck.Gen.(oneof [ string_size (int_bound 40); shaped ]))
    (fun text ->
      match Io.of_string text with
      | Ok _ | Error _ -> true
      | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

let () =
  Alcotest.run "workloads"
    [
      ( "gen",
        [
          Alcotest.test_case "name roundtrip" `Quick test_family_roundtrip;
          Alcotest.test_case "shape of instances" `Quick test_generate_shape;
          Alcotest.test_case "determinism" `Quick test_generate_deterministic;
          Alcotest.test_case "capacity fraction" `Quick test_capacity_fraction;
          Alcotest.test_case "invalid n" `Quick test_invalid_n;
          Alcotest.test_case "few-large structure" `Quick test_few_large_structure;
          Alcotest.test_case "flat-adversarial spread" `Quick test_flat_adversarial_spread;
        ] );
      ( "io",
        [
          Alcotest.test_case "roundtrip" `Quick test_io_roundtrip;
          Alcotest.test_case "comments and blanks" `Quick test_io_comments_and_blanks;
          Alcotest.test_case "errors" `Quick test_io_errors;
          Alcotest.test_case "file roundtrip" `Quick test_io_file_roundtrip;
          Alcotest.test_case "read errors name the file" `Quick test_io_read_errors_name_the_file;
          QCheck_alcotest.to_alcotest prop_io_roundtrip;
          QCheck_alcotest.to_alcotest prop_io_never_raises;
        ] );
    ]
