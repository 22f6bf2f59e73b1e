(* ---------------------------------------------------------------------- *)
(* Naive FPTAS: the boxed-array / per-row-Bytes implementation the flat
   Bigarray kernel of {!Fptas} replaced.  It is the oracle of the
   differential property tests — intentionally allocation-happy and
   obviously correct, never on a hot path. *)

let fptas_naive ~epsilon instance =
  if epsilon <= 0. || epsilon >= 1. then
    invalid_arg "Reference.fptas_naive: epsilon must be in (0, 1)";
  let n = Instance.size instance in
  let k = Instance.capacity instance in
  let usable = ref [] in
  for i = n - 1 downto 0 do
    if (Instance.item instance i).Item.weight <= k then usable := i :: !usable
  done;
  let usable = Array.of_list !usable in
  let m = Array.length usable in
  if m = 0 then (0., Solution.empty)
  else begin
    let profit i = (Instance.item instance usable.(i)).Item.profit in
    let weight i = (Instance.item instance usable.(i)).Item.weight in
    let p_max = ref 0. in
    for i = 0 to m - 1 do
      if profit i > !p_max then p_max := profit i
    done;
    if !p_max = 0. then (0., Solution.empty)
    else begin
      let mu = epsilon *. !p_max /. float_of_int m in
      let scaled = Array.init m (fun i -> int_of_float (floor (profit i /. mu))) in
      let total = Array.fold_left ( + ) 0 scaled in
      let table = Array.make (total + 1) infinity in
      table.(0) <- 0.;
      let take = Array.init m (fun _ -> Bytes.make ((total / 8) + 1) '\000') in
      let best = ref 0 in
      for i = 0 to m - 1 do
        let p = scaled.(i) and w = weight i in
        let row = take.(i) in
        for v = total downto p do
          if table.(v - p) +. w < table.(v) then begin
            table.(v) <- table.(v - p) +. w;
            if table.(v) <= k && v > !best then best := v;
            Dp_scratch.set_bit row v
          end
        done
      done;
      let rec rebuild i v acc =
        if i < 0 then acc
        else if v >= scaled.(i) && Dp_scratch.get_bit take.(i) v then
          rebuild (i - 1) (v - scaled.(i)) (usable.(i) :: acc)
        else rebuild (i - 1) v acc
      in
      let sol = Solution.of_indices (rebuild (m - 1) !best []) in
      (Solution.profit instance sol, sol)
    end
  end

(* ---------------------------------------------------------------------- *)
(* Optimum bracketing                                                     *)

type bracket = { lower : float; upper : float; method_used : string }

let gap b = if b.upper <= 0. then 0. else (b.upper -. b.lower) /. b.upper

let fptas_cells ~epsilon instance =
  (* The profit-DP table volume the FPTAS would allocate: n rows of
     Σ floor(p_i/μ) columns with μ = ε·p_max/n. *)
  let n = Instance.size instance in
  let p_max = ref 0. and total = ref 0. in
  for i = 0 to n - 1 do
    let p = (Instance.item instance i).Item.profit in
    if p > !p_max then p_max := p;
    total := !total +. p
  done;
  if !p_max <= 0. then 0.
  else float_of_int n *. (!total /. (epsilon *. !p_max /. float_of_int n))

let estimate ?(budget_cells = 200_000_000) ?(fptas_epsilon = 0.05) instance =
  let upper = Greedy.fractional_value instance in
  let greedy_lower =
    Solution.profit instance (Greedy.half_approx instance)
  in
  if fptas_cells ~epsilon:fptas_epsilon instance <= float_of_int budget_cells then begin
    let v = Fptas.value ~epsilon:fptas_epsilon instance in
    let lower = Float.max v greedy_lower in
    { lower; upper = Float.min upper (lower /. (1. -. fptas_epsilon)); method_used = "fptas" }
  end
  else { lower = greedy_lower; upper; method_used = "greedy+fractional" }
