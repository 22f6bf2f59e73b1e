let solve (inst : Int_instance.t) =
  let n = Int_instance.size inst and k = inst.capacity in
  let dp = Array.make (k + 1) 0 in
  (* take.(i) is a bitmap over capacities: did item i improve dp at c? *)
  let take = Array.init n (fun _ -> Bytes.make ((k / 8) + 1) '\000') in
  for i = 0 to n - 1 do
    let w = inst.weights.(i) and p = inst.profits.(i) in
    let row = take.(i) in
    for c = k downto w do
      let candidate = dp.(c - w) + p in
      if candidate > dp.(c) then begin
        dp.(c) <- candidate;
        Dp_scratch.set_bit row c
      end
    done
  done;
  let rec rebuild i c acc =
    if i < 0 then acc
    else if Dp_scratch.get_bit take.(i) c then
      rebuild (i - 1) (c - inst.weights.(i)) (i :: acc)
    else rebuild (i - 1) c acc
  in
  (dp.(k), Solution.of_indices (rebuild (n - 1) k []))

let value (inst : Int_instance.t) =
  let k = inst.capacity in
  let dp = Array.make (k + 1) 0 in
  for i = 0 to Int_instance.size inst - 1 do
    let w = inst.weights.(i) and p = inst.profits.(i) in
    for c = k downto w do
      if dp.(c - w) + p > dp.(c) then dp.(c) <- dp.(c - w) + p
    done
  done;
  dp.(k)

(* The profit-indexed DP.  [table.(v)] is the minimum weight achieving
   profit exactly [v]; entries only ever decrease, so the largest feasible
   profit is tracked inside the update loop — once [table.(v)] dips under
   the capacity it stays there — and no closing O(Σp) scan is needed.
   [on_take i v] hears every winning update: item [i] improved level [v]. *)
let min_weight_table (inst : Int_instance.t) ~on_take =
  let n = Int_instance.size inst in
  let total_profit = Array.fold_left ( + ) 0 inst.profits in
  let table = Array.make (total_profit + 1) max_int in
  table.(0) <- 0;
  let best = ref 0 in
  for i = 0 to n - 1 do
    let w = inst.weights.(i) and p = inst.profits.(i) in
    for v = total_profit downto p do
      if table.(v - p) <> max_int && table.(v - p) + w < table.(v) then begin
        table.(v) <- table.(v - p) + w;
        if table.(v) <= inst.capacity && v > !best then best := v;
        on_take i v
      end
    done
  done;
  (table, !best)

let min_weight_per_profit inst = min_weight_table inst ~on_take:(fun _ _ -> ())

let solve_by_profit (inst : Int_instance.t) =
  let n = Int_instance.size inst in
  (* Per-item winning levels: the loop visits them descending and conses
     each one, so every array comes out ascending. *)
  let acc = Array.make n [] in
  let _, best = min_weight_table inst ~on_take:(fun i v -> acc.(i) <- v :: acc.(i)) in
  let levels = Array.map Array.of_list acc in
  let mem_sorted a v =
    let lo = ref 0 and hi = ref (Array.length a - 1) and found = ref false in
    while (not !found) && !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let x = a.(mid) in
      if x = v then found := true else if x < v then lo := mid + 1 else hi := mid - 1
    done;
    !found
  in
  let rec rebuild i v acc =
    if i < 0 then acc
    else if v >= inst.profits.(i) && mem_sorted levels.(i) v then
      rebuild (i - 1) (v - inst.profits.(i)) (i :: acc)
    else rebuild (i - 1) v acc
  in
  (best, Solution.of_indices (rebuild (n - 1) best []))
