module A1 = Bigarray.Array1
module Obs = Lk_obs.Obs

type result = {
  estimate : float;
  lower : float;
  upper : float;
  width : int;
  width_budget : int;
  merges : int;
  delta : float;
  queries : int;
}

let check_args ~eps ~width =
  if not (Float.is_finite eps) || eps <= 0. || eps > 1. then
    invalid_arg "Gkm.count: eps must be in (0, 1]";
  if width < 1 then invalid_arg "Gkm.count: width must be >= 1"

(* Layer buffers: int slots 0/1 ping-pong the kept breakpoints, float
   slots 0/1 the cumulative counts.  Each layer is one ascending merge
   that sparsifies at delta0 as it emits.  When the layer could overrun
   the width budget, the same pass also writes the raw (true) successor
   CDF to slot 2 of each, so the overrun re-sparsifies from it with a
   coarser delta without recomputing the merge. *)
let[@hot] count_in ?(width = max_int) ~eps scratch robp =
  check_args ~eps ~width;
  let n = Robp.size robp in
  let cap = Robp.capacity robp in
  let delta0 = eps /. (2. *. float_of_int (n + 1)) in
  let threshold0 = 1. +. delta0 in
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
      let sb = ref mc in
      while !sb > 0 && A1.unsafe_get x (!sb - 1) + wi > cap do
        decr sb
      done;
      let sb = !sb in
      let need_raw = mc + sb > width in
      let rawlen = if need_raw then mc + sb else 0 in
      let xraw = Count_scratch.int_slot_raw scratch 2 rawlen in
      let craw = Count_scratch.float_slot_raw scratch 2 rawlen in
      let qslot = 1 - !p in
      let xnext = Count_scratch.int_slot_raw scratch qslot (mc + sb) in
      let cnext = Count_scratch.float_slot_raw scratch qslot (mc + sb) in
      (* True successor CDF G(v) = F(v) + F(v - wi) at every candidate
         breakpoint v in {x[a]} u {x[b] + wi <= cap}, ascending merge.
         A breakpoint is kept when G reaches bar = (last kept G) *
         (1 + delta0): keeping only jumps >= (1 + delta) under-counts by
         at most (1 + delta) at any point, the layer's certified error. *)
      let a = ref 0 and b = ref 0 and out = ref 0 and k = ref 0 in
      let v = ref 0 and g = ref 0. and bar = ref neg_infinity in
      while !a < mc || !b < sb do
        let va = if !a < mc then A1.unsafe_get x !a else max_int in
        let vb = if !b < sb then A1.unsafe_get x !b + wi else max_int in
        if va <= vb then begin
          (* F(va - wi) off the take pointer: x[b] itself when va = vb;
             else every x[b'] + wi with b' < b is already emitted, so
             x[b - 1] <= va - wi < x[b]. *)
          let below =
            if vb = va then A1.unsafe_get c !b
            else if !b > 0 then A1.unsafe_get c (!b - 1)
            else 0.
          in
          v := va;
          g := A1.unsafe_get c !a +. below;
          incr a;
          if vb = va then incr b
        end
        else begin
          (* vb = x[b] + wi strictly between orig breakpoints: the last
             orig <= vb is a - 1 (a >= 1 since x[0] = 0 <= vb was emitted). *)
          v := vb;
          g := A1.unsafe_get c (!a - 1) +. A1.unsafe_get c !b;
          incr b
        end;
        if need_raw then begin
          A1.unsafe_set xraw !out !v;
          A1.unsafe_set craw !out !g
        end;
        incr out;
        if !g >= !bar then begin
          A1.unsafe_set xnext !k !v;
          A1.unsafe_set cnext !k !g;
          bar := !g *. threshold0;
          incr k
        end
      done;
      let raw = !out in
      (* Width overrun: re-sparsify raw, doubling delta until the budget
         holds.  Once delta is infinite every infinite count is kept, so a
         pass there that still overruns would repeat forever. *)
      let delta = ref delta0 in
      while !k > width do
        if not (Float.is_finite !delta) then
          invalid_arg
            "Gkm.count: width budget unreachable: counts overflow the float \
             range (2^1024)";
        delta := 2. *. !delta;
        let threshold = 1. +. !delta in
        bar := neg_infinity;
        k := 0;
        for j = 0 to raw - 1 do
          let gj = A1.unsafe_get craw j in
          if gj >= !bar then begin
            A1.unsafe_set xnext !k (A1.unsafe_get xraw j);
            A1.unsafe_set cnext !k gj;
            bar := gj *. threshold;
            incr k
          end
        done
      done;
      let kept = !k in
      err := !err *. (1. +. !delta);
      if !delta > !max_delta then max_delta := !delta;
      merges := !merges + (raw - kept);
      if kept > !max_width then max_width := kept;
      p := qslot;
      m := kept;
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

let count ?(sink = Obs.null) ?width ~eps oracle =
  Obs.phase sink "gkm-count" (fun () ->
      let robp = Robp.build ~sink oracle in
      let scratch = Count_scratch.create () in
      count_in ?width ~eps scratch robp)
