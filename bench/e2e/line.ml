(* One JSON value on one line — the result line main.exe prints last and
   the span stream are both line-oriented, which Lk_benchkit.Json's
   indented printer is not.  Numbers keep all 17 significant digits. *)

module Json = Lk_benchkit.Json

let escape buf s =
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf buf "\\u%04x" (Char.code c)
      | c -> Buffer.add_char buf c)
    s

let rec add buf = function
  | Json.Null -> Buffer.add_string buf "null"
  | Json.Bool b -> Buffer.add_string buf (string_of_bool b)
  | Json.Num f when not (Float.is_finite f) -> Buffer.add_string buf "null"
  | Json.Num f when Float.is_integer f && Float.abs f < 1e15 ->
      Printf.bprintf buf "%.0f" f
  | Json.Num f -> Printf.bprintf buf "%.17g" f
  | Json.Str s ->
      Buffer.add_char buf '"';
      escape buf s;
      Buffer.add_char buf '"'
  | Json.Arr items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string buf ", ";
          add buf v)
        items;
      Buffer.add_char buf ']'
  | Json.Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ", ";
          add buf (Json.Str k);
          Buffer.add_string buf ": ";
          add buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  add buf v;
  Buffer.contents buf
