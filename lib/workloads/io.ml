module Instance = Lk_knapsack.Instance
module Item = Lk_knapsack.Item

let to_string instance =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "# knapsack instance: %d items\n%.17g\n" (Instance.size instance)
       (Instance.capacity instance));
  for i = 0 to Instance.size instance - 1 do
    let it = Instance.item instance i in
    Buffer.add_string buf (Printf.sprintf "%.17g %.17g\n" it.Item.profit it.Item.weight)
  done;
  Buffer.contents buf

let ( let* ) = Result.bind

(* Every error names the line it is about; [read] puts the path in front. *)
let of_string text =
  let error lno fmt = Printf.ksprintf (fun m -> Error (Printf.sprintf "line %d: %s" lno m)) fmt in
  let data =
    List.mapi (fun i l -> (i + 1, String.trim l)) (String.split_on_char '\n' text)
    |> List.filter (fun (_, l) -> l <> "" && l.[0] <> '#')
  in
  let parse (lno, line) =
    match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
    | [ p; w ] -> (
        match (float_of_string_opt p, float_of_string_opt w) with
        | Some profit, Some weight -> (
            match Item.make ~profit ~weight with
            | item -> Ok item
            | exception Invalid_argument m -> error lno "bad item %S: %s" line m)
        | _ -> error lno "bad item %S" line)
    | _ -> error lno "expected 'profit weight'"
  in
  let rec parse_all acc = function
    | [] -> Ok (Array.of_list (List.rev acc))
    | l :: rest ->
        let* item = parse l in
        parse_all (item :: acc) rest
  in
  match data with
  | [] -> Error "empty instance: no capacity line"
  | (lno, cap_line) :: items -> (
      let* capacity =
        match float_of_string_opt cap_line with
        | Some c -> Ok c
        | None -> error lno "bad capacity %S" cap_line
      in
      let* items = parse_all [] items in
      match Instance.make items ~capacity with
      | instance -> Ok instance
      | exception Invalid_argument m -> error lno "%s" m)

let write path instance =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_string instance))

let read path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> Result.map_error (fun m -> path ^ ": " ^ m) (of_string text)
  | exception Sys_error m ->
      (* A failed open already names the file; a failed read may not. *)
      if String.starts_with ~prefix:(path ^ ": ") m then Error m else Error (path ^ ": " ^ m)
