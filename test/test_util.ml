module Rng = Lk_util.Rng
module Fu = Lk_util.Float_utils
module Tbl = Lk_util.Tbl

let test_rng_determinism () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1L and b = Rng.create 2L in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.int64 a = Rng.int64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_rng_split_independent () =
  let parent = Rng.create 7L in
  let child = Rng.split parent in
  let xs = Array.init 64 (fun _ -> Rng.int64 child) in
  let ys = Array.init 64 (fun _ -> Rng.int64 parent) in
  let collisions = Array.to_list xs |> List.filter (fun x -> Array.mem x ys) in
  Alcotest.(check int) "no collisions" 0 (List.length collisions)

let test_rng_of_path_stable () =
  let a = Rng.of_path 9L [ "rquantile"; "k=3" ] and b = Rng.of_path 9L [ "rquantile"; "k=3" ] in
  Alcotest.(check int64) "same derived stream" (Rng.int64 a) (Rng.int64 b);
  let c = Rng.of_path 9L [ "rquantile"; "k=4" ] in
  Alcotest.(check bool) "different labels differ" true (Rng.int64 a <> Rng.int64 c)

let test_rng_float_range () =
  let rng = Rng.create 3L in
  for _ = 1 to 1000 do
    let x = Rng.float rng in
    Alcotest.(check bool) "in [0,1)" true (x >= 0. && x < 1.)
  done

let test_rng_int_bound () =
  let rng = Rng.create 4L in
  let counts = Array.make 7 0 in
  for _ = 1 to 7000 do
    let v = Rng.int_bound rng 7 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 7);
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter
    (fun c -> Alcotest.(check bool) "roughly uniform" true (c > 800 && c < 1200))
    counts

let test_rng_int_bound_invalid () =
  let rng = Rng.create 5L in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int_bound: bound must be positive")
    (fun () -> ignore (Rng.int_bound rng 0))

(* The published SplitMix64 reference outputs for seed 1234567 (signed):
   an independent oracle for the generator itself, where the path tests
   below only pin derivations. *)
let test_rng_splitmix_reference () =
  let rng = Rng.create 1234567L in
  List.iter
    (fun expected -> Alcotest.(check int64) "SplitMix64 output" expected (Rng.int64 rng))
    [ 6457827717110365317L; 3203168211198807973L; -8629252141511181193L;
      4593380528125082431L; -2037821214251327795L ]

let test_rng_int_bound_above_2_53 () =
  let rng = Rng.create 5L in
  List.iter
    (fun n ->
      Alcotest.check_raises (Printf.sprintf "bound %d" n)
        (Invalid_argument "Rng.int_bound: a bound above 2^53 must be a power of two")
        (fun () -> ignore (Rng.int_bound rng n)))
    [ (1 lsl 53) + 1; 3 lsl 52; max_int ];
  Alcotest.(check int) "limit below 2^53" ((1 lsl 53) - ((1 lsl 53) mod 10_000))
    (Rng.rejection_limit 10_000);
  Alcotest.(check int) "limit of 2^60" (1 lsl 53) (Rng.rejection_limit (1 lsl 60));
  (* A power of two above 2^53 is accepted, but only 53 bits are random. *)
  for _ = 1 to 1000 do
    let v = Rng.int_bound rng (1 lsl 60) in
    Alcotest.(check bool) "2^60 draw below 2^53" true (v >= 0 && v < 1 lsl 53)
  done

(* The generator's state is stored unboxed: per-draw calls that return an
   int leave nothing on the minor heap. *)
let test_rng_allocation_free () =
  let rng = Rng.create 8L and acc = ref 0 in
  List.iter
    (fun (name, draw) ->
      acc := !acc + draw ();
      let before = Gc.minor_words () in
      for _ = 1 to 100_000 do
        acc := !acc + draw ()
      done;
      Alcotest.(check (float 0.)) (name ^ ": minor words") 0. (Gc.minor_words () -. before))
    [ ("bits53", fun () -> Rng.bits53 rng); ("int_bound 10_000", fun () -> Rng.int_bound rng 10_000) ];
  Alcotest.(check bool) "draws consumed" true (!acc <> 0)

let test_sample_distinct () =
  let rng = Rng.create 6L in
  for _ = 1 to 50 do
    let picks = Rng.sample_distinct rng ~n:100 ~k:30 in
    Alcotest.(check int) "k picks" 30 (List.length picks);
    Alcotest.(check int) "distinct" 30 (List.length (List.sort_uniq compare picks));
    List.iter (fun i -> Alcotest.(check bool) "in range" true (i >= 0 && i < 100)) picks
  done;
  let all = Rng.sample_distinct rng ~n:10 ~k:10 in
  Alcotest.(check (list int)) "k=n is everything" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.sort compare all)

let test_shuffle_permutation () =
  let rng = Rng.create 8L in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 (fun i -> i)) sorted

let test_bernoulli_bias () =
  let rng = Rng.create 10L in
  let hits = ref 0 in
  for _ = 1 to 10_000 do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  Alcotest.(check bool) "close to 0.3" true (!hits > 2700 && !hits < 3300)

let test_pareto_support () =
  let rng = Rng.create 11L in
  for _ = 1 to 100 do
    Alcotest.(check bool) "at least xmin" true (Rng.pareto rng ~alpha:1.5 ~xmin:2. >= 2.)
  done

let test_rng_int_range () =
  let rng = Rng.create 12L in
  for _ = 1 to 500 do
    let v = Rng.int_range rng (-5) 5 in
    Alcotest.(check bool) "in [-5,5]" true (v >= -5 && v <= 5)
  done;
  Alcotest.(check int) "singleton range" 3 (Rng.int_range rng 3 3);
  Alcotest.check_raises "empty range" (Invalid_argument "Rng.int_range: empty range")
    (fun () -> ignore (Rng.int_range rng 2 1))

let test_rng_uniform_support () =
  let rng = Rng.create 13L in
  for _ = 1 to 500 do
    let v = Rng.uniform rng 2. 5. in
    Alcotest.(check bool) "in [2,5)" true (v >= 2. && v < 5.)
  done

let test_rng_exponential () =
  let rng = Rng.create 14L in
  let xs = Array.init 20_000 (fun _ -> Rng.exponential rng 2.) in
  Array.iter (fun x -> if x < 0. then Alcotest.fail "negative exponential") xs;
  let mean = Fu.mean xs in
  Alcotest.(check bool) "mean ~ 1/rate" true (abs_float (mean -. 0.5) < 0.02);
  Alcotest.check_raises "bad rate" (Invalid_argument "Rng.exponential: rate must be positive")
    (fun () -> ignore (Rng.exponential rng 0.))

let test_rng_of_path_order_sensitive () =
  let a = Rng.of_path 1L [ "x"; "y" ] and b = Rng.of_path 1L [ "y"; "x" ] in
  Alcotest.(check bool) "order matters" true (Rng.int64 a <> Rng.int64 b)

let test_rng_copy_independent () =
  let a = Rng.create 5L in
  ignore (Rng.int64 a);
  let b = Rng.copy a in
  let va = Rng.int64 a in
  let vb = Rng.int64 b in
  Alcotest.(check int64) "copy continues identically" va vb;
  ignore (Rng.int64 a);
  (* advancing a does not advance b *)
  Alcotest.(check int64) "independent state" (Rng.int64 a) (Rng.int64 (Rng.copy a))

(* ---------- Rng.split_at (index-derived streams for lib/parallel) ---------- *)

let test_split_at_thousand_distinct () =
  let t = Rng.create 20260806L in
  let firsts = Array.init 1000 (fun i -> Rng.int64 (Rng.split_at t i)) in
  let distinct = List.sort_uniq compare (Array.to_list firsts) in
  Alcotest.(check int) "1000 sibling streams, 1000 distinct first draws" 1000
    (List.length distinct);
  Alcotest.check_raises "negative index"
    (Invalid_argument "Rng.split_at: index must be non-negative") (fun () ->
      ignore (Rng.split_at t (-1)))

let prop_split_at_pure =
  QCheck.Test.make ~name:"split_at: reproducible and parent unperturbed" ~count:200
    QCheck.(pair int (int_bound 999))
    (fun (seed, i) ->
      let t = Rng.create (Int64.of_int seed) in
      let before = Rng.int64 (Rng.copy t) in
      let a = Rng.int64 (Rng.split_at t i) in
      let b = Rng.int64 (Rng.split_at t i) in
      let after = Rng.int64 (Rng.copy t) in
      a = b && before = after)

let prop_split_at_matches_split_walk =
  QCheck.Test.make ~name:"split_at t i = (i+1)-th split of a copy" ~count:200
    QCheck.(pair int (int_bound 50))
    (fun (seed, i) ->
      let t = Rng.create (Int64.of_int seed) in
      let walker = Rng.copy t in
      let rec nth k =
        let child = Rng.split walker in
        if k = i then child else nth (k + 1)
      in
      Rng.int64 (nth 0) = Rng.int64 (Rng.split_at t i))

let prop_split_at_siblings_differ =
  QCheck.Test.make ~name:"split_at: distinct indices give distinct streams" ~count:200
    QCheck.(triple int (int_bound 999) (int_bound 999))
    (fun (seed, i, j) ->
      QCheck.assume (i <> j);
      let t = Rng.create (Int64.of_int seed) in
      Rng.int64 (Rng.split_at t i) <> Rng.int64 (Rng.split_at t j))

(* ---------- derivation paths against the fold-based reference ---------- *)

(* The original [of_path]: fold each label's bytes with [String.iter] into
   a boxed accumulator, avalanche with mix64 between labels.  The fast
   paths ([of_path]'s in-place loop, [of_path_int]'s digit hashing and
   [Domain.salt] on top of it) must reproduce its streams exactly. *)
let reference_mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let reference_of_path seed labels =
  let hash_label acc label =
    let h = ref acc in
    String.iter
      (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001B3L)
      label;
    reference_mix64 !h
  in
  Rng.create (List.fold_left hash_label (reference_mix64 seed) labels)

let reference_salt ~seed ~index =
  Int64.to_int
    (Int64.shift_right_logical
       (Rng.int64 (reference_of_path seed [ "tie"; string_of_int index ]))
       2)

let same_stream a b = List.for_all (fun _ -> Rng.int64 a = Rng.int64 b) [ 1; 2; 3 ]

let label_gen =
  QCheck.Gen.(
    oneof [ pure ""; string_size ~gen:char (int_bound 12); map string_of_int int ])

let prop_of_path_reference =
  QCheck.Test.make ~name:"of_path = fold-based reference" ~count:300
    QCheck.(
      pair int64 (make ~print:Print.(list string) Gen.(list_size (int_bound 4) label_gen)))
    (fun (seed, labels) ->
      same_stream (Rng.of_path seed labels) (reference_of_path seed labels))

let index_gen =
  QCheck.Gen.(
    oneof
      [ int; int_bound 1000; oneofl [ 0; 9; 10; 99; 100; max_int; min_int; -1; -10 ];
        map (fun k -> k * 1_000_000_000_000_000) (int_range (-4) 4) ])

let prop_of_path_int_reference =
  QCheck.Test.make ~name:"of_path_int = of_path with string_of_int" ~count:300
    QCheck.(triple int64 (make Gen.(list_size (int_bound 3) label_gen)) (make index_gen))
    (fun (seed, labels, i) ->
      same_stream (Rng.of_path_int seed labels i)
        (reference_of_path seed (labels @ [ string_of_int i ])))

let prop_salt_reference =
  QCheck.Test.make ~name:"Domain.salt = fold-based reference" ~count:300
    QCheck.(pair int64 (make index_gen))
    (fun (seed, index) ->
      Lk_repro.Domain.salt ~seed ~index = reference_salt ~seed ~index)

let test_salt_edges () =
  List.iter
    (fun seed ->
      List.iter
        (fun index ->
          Alcotest.(check int)
            (Printf.sprintf "seed %Ld index %d" seed index)
            (reference_salt ~seed ~index) (Lk_repro.Domain.salt ~seed ~index))
        [ 0; 9; 10; 99; 100; 12345; 999_999_999_999_999; 1_000_000_000_000_000; max_int;
          -1; min_int ])
    [ 0L; 7L; -1L; Int64.max_int; Int64.min_int ];
  Alcotest.(check bool) "empty label hashes like the reference" true
    (same_stream (Rng.of_path 3L [ ""; "x"; "" ]) (reference_of_path 3L [ ""; "x"; "" ]));
  (* Values measured with the string-building derivation. *)
  Alcotest.(check int) "pin index 0" 2850807348165353226
    (Lk_repro.Domain.salt ~seed:7L ~index:0);
  Alcotest.(check int) "pin index 12345" 3133663859288192222
    (Lk_repro.Domain.salt ~seed:7L ~index:12345)

(* ---------- %h writer ---------- *)

let render_hex x =
  let buf = Bytes.make (3 + Fu.hex_max_length) '#' in
  let stop = Fu.write_hex buf 3 x in
  Bytes.sub_string buf 3 (stop - 3)

(* Random 64-bit patterns, with extra weight on the zero/subnormal and
   infinity/nan exponent fields and on fractions with trailing zero
   nibbles (short renderings). *)
let float_bits =
  QCheck.Gen.(
    oneof
      [
        ui64;
        map (fun b -> Int64.logand b 0x800F_FFFF_FFFF_FFFFL) ui64;
        map (fun b -> Int64.logor b 0x7FF0_0000_0000_0000L) ui64;
        map2 (fun b k -> Int64.logand b (Int64.shift_left (-1L) (4 * k))) ui64 (int_bound 13);
      ])

let prop_write_hex_printf =
  QCheck.Test.make ~name:"write_hex (float_of_bits random) = %h" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%Lx") float_bits)
    (fun bits ->
      let x = Int64.float_of_bits bits in
      render_hex x = Printf.sprintf "%h" x)

let test_write_hex_edges () =
  List.iter
    (fun x -> Alcotest.(check string) (Printf.sprintf "%h" x) (Printf.sprintf "%h" x) (render_hex x))
    [ 0.; -0.; 5e-324; -5e-324; 2.2250738585072014e-308; max_float; -.max_float; infinity;
      neg_infinity; nan; -.nan; 1.; 0.1; 1e300; 2.5; min_float; Float.pred 1.; Float.succ 1. ];
  let buf = Bytes.create (Fu.hex_max_length + 1) in
  Alcotest.(check int) "longest rendering fits" Fu.hex_max_length
    (Fu.write_hex buf 0 (-.max_float));
  Alcotest.check_raises "too little room"
    (Invalid_argument "Float_utils.write_hex: fewer than hex_max_length bytes at pos")
    (fun () -> ignore (Fu.write_hex buf 2 1.))

(* ---------- Int_sort ---------- *)

(* Values with long runs of equal codes, negatives and both ends of the int
   range, at lengths on both sides of the radix threshold (256). *)
let sort_input =
  let value =
    QCheck.Gen.(
      oneof
        [ int; int_range (-3) 3; oneofl [ min_int; max_int; 0; -1 ];
          map (fun k -> k lsl 40) (int_range (-5) 5) ])
  in
  QCheck.Gen.(
    let* len = oneof [ oneofl [ 0; 1; 255; 256; 257; 4097 ]; int_bound 600; int_range 4096 5000 ] in
    let* equal = frequencyl [ (5, false); (1, true) ] in
    let* v0 = value in
    let* values = array_size (pure len) (if equal then pure v0 else value) in
    let+ tags = string_size ~gen:(map Char.chr (int_bound 64)) (pure len) in
    (values, tags))

let pairs_of values tags = List.init (Array.length values) (fun i -> (values.(i), tags.[i]))

let prop_sort_tagged =
  QCheck.Test.make ~name:"sort_tagged = stable sort of (value, tag) pairs" ~count:300
    (QCheck.make sort_input)
    (fun (values, tags) ->
      let input = pairs_of values tags in
      let sorted = Array.copy values and moved = Bytes.of_string tags in
      Lk_util.Int_sort.sort_tagged sorted moved;
      pairs_of sorted (Bytes.to_string moved)
      = List.stable_sort (fun (a, _) (b, _) -> compare a b) input)

let prop_sort =
  QCheck.Test.make ~name:"sort = List.sort compare" ~count:300 (QCheck.make sort_input)
    (fun (values, _) ->
      let sorted = Array.copy values in
      Lk_util.Int_sort.sort sorted;
      Array.to_list sorted = List.sort compare (Array.to_list values))

let test_kahan_sum () =
  let xs = Array.make 10_000 0.1 in
  Alcotest.(check (float 1e-9)) "compensated" 1000. (Fu.sum xs)

let test_iterated_log () =
  Alcotest.(check int) "log* 1" 0 (Fu.iterated_log2 1.);
  Alcotest.(check int) "log* 2" 1 (Fu.iterated_log2 2.);
  Alcotest.(check int) "log* 4" 2 (Fu.iterated_log2 4.);
  Alcotest.(check int) "log* 16" 3 (Fu.iterated_log2 16.);
  Alcotest.(check int) "log* 65536" 4 (Fu.iterated_log2 65536.);
  Alcotest.(check int) "log* 2^32" 5 (Fu.iterated_log2 (2. ** 32.))

let test_clamp () =
  Alcotest.(check (float 0.)) "below" 1. (Fu.clamp ~lo:1. ~hi:2. 0.);
  Alcotest.(check (float 0.)) "above" 2. (Fu.clamp ~lo:1. ~hi:2. 3.);
  Alcotest.(check (float 0.)) "inside" 1.5 (Fu.clamp ~lo:1. ~hi:2. 1.5)

let test_approx_eq () =
  Alcotest.(check bool) "close" true (Fu.approx_eq 1.0 (1.0 +. 1e-12));
  Alcotest.(check bool) "far" false (Fu.approx_eq 1.0 1.1);
  Alcotest.(check bool) "relative for large" true (Fu.approx_eq ~eps:1e-9 1e12 (1e12 +. 1.))

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let test_tbl_render () =
  let t = Tbl.create ~title:"demo" [ "a"; "bb" ] in
  Tbl.add_row t [ "1"; "2" ];
  Tbl.add_row t [ "333"; "4" ];
  let s = Tbl.render t in
  Alcotest.(check bool) "title present" true (contains ~needle:"== demo ==" s);
  Alcotest.(check bool) "cell present" true (contains ~needle:"333" s);
  Alcotest.(check bool) "header present" true (contains ~needle:"bb" s)

let test_tbl_mismatch () =
  let t = Tbl.create ~title:"demo" [ "a"; "b" ] in
  Alcotest.check_raises "bad row" (Invalid_argument "Tbl.add_row: cell count does not match headers")
    (fun () -> Tbl.add_row t [ "only-one" ])

let test_tbl_cells () =
  Alcotest.(check string) "pct" "12.50%" (Tbl.cell_pct 0.125);
  Alcotest.(check string) "float" "1.2346" (Tbl.cell_float 1.23456);
  Alcotest.(check string) "bool" "yes" (Tbl.cell_bool true)

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seeds_differ;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "of_path stable" `Quick test_rng_of_path_stable;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "int_bound uniform" `Quick test_rng_int_bound;
          Alcotest.test_case "int_bound invalid" `Quick test_rng_int_bound_invalid;
          Alcotest.test_case "int_bound above 2^53" `Quick test_rng_int_bound_above_2_53;
          Alcotest.test_case "SplitMix64 reference" `Quick test_rng_splitmix_reference;
          Alcotest.test_case "draws allocation-free" `Quick test_rng_allocation_free;
          Alcotest.test_case "sample_distinct" `Quick test_sample_distinct;
          Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
          Alcotest.test_case "bernoulli bias" `Quick test_bernoulli_bias;
          Alcotest.test_case "pareto support" `Quick test_pareto_support;
          Alcotest.test_case "int_range" `Quick test_rng_int_range;
          Alcotest.test_case "uniform support" `Quick test_rng_uniform_support;
          Alcotest.test_case "exponential" `Quick test_rng_exponential;
          Alcotest.test_case "of_path order" `Quick test_rng_of_path_order_sensitive;
          Alcotest.test_case "copy independence" `Quick test_rng_copy_independent;
        ] );
      ( "split_at",
        [
          Alcotest.test_case "1k siblings distinct" `Quick test_split_at_thousand_distinct;
          QCheck_alcotest.to_alcotest prop_split_at_pure;
          QCheck_alcotest.to_alcotest prop_split_at_matches_split_walk;
          QCheck_alcotest.to_alcotest prop_split_at_siblings_differ;
        ] );
      ( "paths",
        [
          Alcotest.test_case "salt edges and pins" `Quick test_salt_edges;
          QCheck_alcotest.to_alcotest prop_of_path_reference;
          QCheck_alcotest.to_alcotest prop_of_path_int_reference;
          QCheck_alcotest.to_alcotest prop_salt_reference;
        ] );
      ( "hex_writer",
        [
          Alcotest.test_case "edge values" `Quick test_write_hex_edges;
          QCheck_alcotest.to_alcotest prop_write_hex_printf;
        ] );
      ( "int_sort",
        [
          QCheck_alcotest.to_alcotest prop_sort_tagged;
          QCheck_alcotest.to_alcotest prop_sort;
        ] );
      ( "float_utils",
        [
          Alcotest.test_case "kahan sum" `Quick test_kahan_sum;
          Alcotest.test_case "iterated log" `Quick test_iterated_log;
          Alcotest.test_case "clamp" `Quick test_clamp;
          Alcotest.test_case "approx_eq" `Quick test_approx_eq;
        ] );
      ( "tbl",
        [
          Alcotest.test_case "render" `Quick test_tbl_render;
          Alcotest.test_case "row mismatch" `Quick test_tbl_mismatch;
          Alcotest.test_case "cell formatting" `Quick test_tbl_cells;
        ] );
    ]
