(* Monomorphic in-place sorting for int arrays.

   [Array.sort compare] on an int array dispatches every comparison through
   the polymorphic [caml_compare] runtime path — measured ~300 ns per
   element on the EPS efficiency-code arrays, which made sorting the single
   biggest line item of a cold query preparation.  This sorter keeps the
   exact same contract (an in-place ascending sort; equal ints are
   indistinguishable, so the output array is bit-identical to any correct
   sort) with immediate integer compares. *)

let swap (a : int array) i j =
  let t = Array.unsafe_get a i in
  Array.unsafe_set a i (Array.unsafe_get a j);
  Array.unsafe_set a j t

(* Insertion sort on [lo, hi] (inclusive) — the small-range workhorse. *)
let insertion (a : int array) lo hi =
  for i = lo + 1 to hi do
    let v = Array.unsafe_get a i in
    let j = ref (i - 1) in
    while !j >= lo && Array.unsafe_get a !j > v do
      Array.unsafe_set a (!j + 1) (Array.unsafe_get a !j);
      decr j
    done;
    Array.unsafe_set a (!j + 1) v
  done

let small_cutoff = 32

(* Median-of-three pivot selection: sorts a.(lo) <= a.(mid) <= a.(hi) in
   place and returns the median value. *)
let median3 (a : int array) lo hi =
  let mid = lo + ((hi - lo) / 2) in
  if Array.unsafe_get a mid < Array.unsafe_get a lo then swap a mid lo;
  if Array.unsafe_get a hi < Array.unsafe_get a mid then begin
    swap a hi mid;
    if Array.unsafe_get a mid < Array.unsafe_get a lo then swap a mid lo
  end;
  Array.unsafe_get a mid

(* Quicksort with three-way (fat-pivot) partitioning: efficiency-code
   samples carry long runs of equal values (heavy domain points), which a
   two-way partition would degrade on.  Recursion always descends into the
   smaller side and loops on the larger, bounding the stack at O(log n). *)
let rec qsort (a : int array) lo hi =
  if hi - lo < small_cutoff then (if hi > lo then insertion a lo hi)
  else begin
    let pivot = median3 a lo hi in
    (* Bentley–McIlroy three-way partition of [lo, hi]. *)
    let lt = ref lo and gt = ref hi and i = ref lo in
    while !i <= !gt do
      let v = Array.unsafe_get a !i in
      if v < pivot then begin
        swap a !lt !i;
        incr lt;
        incr i
      end
      else if v > pivot then begin
        swap a !i !gt;
        decr gt
      end
      else incr i
    done;
    (* Recurse on the smaller of the two strict sides. *)
    if !lt - lo < hi - !gt then begin
      qsort a lo (!lt - 1);
      qsort a (!gt + 1) hi
    end
    else begin
      qsort a (!gt + 1) hi;
      qsort a lo (!lt - 1)
    end
  end

(* LSD radix sort, 8 bits per pass, for large ranges: the dominant sorting
   workload here is efficiency-code samples, where counting passes beat
   comparison sorting by ~5×.  The key of [v] is [v - lo], with [lo] the
   minimum, read as unsigned by [lsr]: the true difference lies in
   [0, 2^63), so negative and 62-bit values sort on the same passes, and
   the passes stop at the highest non-zero byte of [hi - lo].  A non-empty
   [tags] is permuted along with [a] (tags.[i] travels with a.(i)). *)
let radix_threshold = 256

let radix (a : int array) (tags : Bytes.t) =
  let len = Array.length a in
  let tagged = Bytes.length tags > 0 in
  let lo = ref (Array.unsafe_get a 0) and hi = ref (Array.unsafe_get a 0) in
  for i = 1 to len - 1 do
    let v = Array.unsafe_get a i in
    if v < !lo then lo := v;
    if v > !hi then hi := v
  done;
  let lo = !lo in
  let span = !hi - lo in
  let tmp = Array.make len 0 and tmp_tags = Bytes.create (if tagged then len else 0) in
  let count = Array.make 256 0 in
  (* Ping-pong between a and tmp; [in_a] tracks where the current keys
     live. *)
  let in_a = ref true in
  let shift = ref 0 in
  (* The [shift < 63] bound matters: [lsr] by >= Sys.int_size is
     unspecified (x86 masks the count mod 64, making [x lsr 64 = x]), so
     on 63-bit-wide keys the span test alone would never fail. *)
  while !shift < 63 && span lsr !shift <> 0 do
    Array.fill count 0 256 0;
    let src = if !in_a then a else tmp and dst = if !in_a then tmp else a in
    let src_tags = if !in_a then tags else tmp_tags
    and dst_tags = if !in_a then tmp_tags else tags in
    for i = 0 to len - 1 do
      let b = ((Array.unsafe_get src i - lo) lsr !shift) land 255 in
      Array.unsafe_set count b (Array.unsafe_get count b + 1)
    done;
    let acc = ref 0 in
    for b = 0 to 255 do
      let c = Array.unsafe_get count b in
      Array.unsafe_set count b !acc;
      acc := !acc + c
    done;
    for i = 0 to len - 1 do
      let v = Array.unsafe_get src i in
      let b = ((v - lo) lsr !shift) land 255 in
      let slot = Array.unsafe_get count b in
      Array.unsafe_set dst slot v;
      if tagged then Bytes.unsafe_set dst_tags slot (Bytes.unsafe_get src_tags i);
      Array.unsafe_set count b (slot + 1)
    done;
    in_a := not !in_a;
    shift := !shift + 8
  done;
  if not !in_a then begin
    Array.blit tmp 0 a 0 len;
    if tagged then Bytes.blit tmp_tags 0 tags 0 len
  end

let sort a =
  let len = Array.length a in
  if len >= radix_threshold then radix a Bytes.empty
  else if len > 1 then qsort a 0 (len - 1)

let sort_tagged a tags =
  if Bytes.length tags <> Array.length a then
    invalid_arg "Int_sort.sort_tagged: tags and values differ in length";
  if Array.length a > 1 then radix a tags
