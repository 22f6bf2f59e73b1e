module Int_set = Set.Make (Int)

type t = Int_set.t

let empty = Int_set.empty
let of_indices = Int_set.of_list
let singleton = Int_set.singleton
let add = Int_set.add
let union = Int_set.union
let mem = Int_set.mem
let cardinal = Int_set.cardinal
let indices = Int_set.elements

let sum_over instance s f =
  Lk_util.Float_utils.sum
    (Array.of_list (List.map (fun i -> f (Instance.item instance i)) (indices s)))

let profit instance s = sum_over instance s (fun (it : Item.t) -> it.profit)
let weight instance s = sum_over instance s (fun (it : Item.t) -> it.weight)

let feasibility_slack k = (k *. 1e-12) +. 1e-12

let is_feasible instance s =
  let k = Instance.capacity instance in
  weight instance s <= k +. feasibility_slack k

let is_maximal instance s =
  is_feasible instance s
  &&
  let k = Instance.capacity instance in
  let remaining = k -. weight instance s in
  let n = Instance.size instance in
  let rec fits i =
    if i >= n then false
    else if (not (mem i s)) && (Instance.item instance i).Item.weight <= remaining +. feasibility_slack k
    then true
    else fits (i + 1)
  in
  not (fits 0)

let of_answers answers =
  let s = ref empty in
  Array.iteri (fun i yes -> if yes then s := add i !s) answers;
  !s

let equal = Int_set.equal

let pp ppf s =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
       Format.pp_print_int)
    (indices s)
