type t = { profits : int array; weights : int array; capacity : int }

let make ~profits ~weights ~capacity =
  if Array.length profits <> Array.length weights then
    invalid_arg "Int_instance.make: profits/weights length mismatch";
  if Array.length profits = 0 then invalid_arg "Int_instance.make: no items";
  if capacity < 0 then invalid_arg "Int_instance.make: negative capacity";
  Array.iter (fun p -> if p < 0 then invalid_arg "Int_instance.make: negative profit") profits;
  Array.iter (fun w -> if w < 0 then invalid_arg "Int_instance.make: negative weight") weights;
  { profits; weights; capacity }

let size t = Array.length t.profits

let to_float t =
  let items =
    Array.init (size t) (fun i ->
        Item.make ~profit:(float_of_int t.profits.(i)) ~weight:(float_of_int t.weights.(i)))
  in
  Instance.make items ~capacity:(float_of_int t.capacity)
