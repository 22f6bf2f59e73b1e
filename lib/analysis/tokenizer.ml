type kind = Ident | Int_lit | Float_lit | Op | Punct

type token = { text : string; line : int; col : int; kind : kind }

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9') || c = '\''
let is_digit c = c >= '0' && c <= '9'

let is_hex_digit c =
  is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

let is_octal_digit c = c >= '0' && c <= '7'

let is_op_char c = String.contains "!$%&*+-/:<=>?@^|~" c

let tokenize src =
  let n = String.length src in
  let toks = ref [] in
  let pos = ref 0 and line = ref 1 and bol = ref 0 in
  let peek k = if !pos + k < n then Some src.[!pos + k] else None in
  let cur () = peek 0 in
  let advance () =
    (match cur () with
    | Some '\n' ->
        incr line;
        bol := !pos + 1
    | _ -> ());
    incr pos
  in
  let emit kind text tl tc = toks := { text; line = tl; col = tc; kind } :: !toks in
  (* ["..."] with backslash escapes; produces no token. *)
  let skip_string () =
    advance ();
    let rec go () =
      match cur () with
      | None -> ()
      | Some '\\' ->
          advance ();
          advance ();
          go ()
      | Some '"' -> advance ()
      | Some _ ->
          advance ();
          go ()
    in
    go ()
  in
  (* At [{]: is this a quoted-string literal [{tag|...|tag}]? *)
  let quoted_tag () =
    let rec scan j =
      if j >= n then None
      else
        match src.[j] with
        | 'a' .. 'z' | '_' -> scan (j + 1)
        | '|' -> Some (String.sub src (!pos + 1) (j - !pos - 1))
        | _ -> None
    in
    scan (!pos + 1)
  in
  let skip_quoted tag =
    let close = "|" ^ tag ^ "}" in
    let m = String.length close in
    let matches_close () =
      !pos + m <= n && String.sub src !pos m = close
    in
    (* skip "{tag|" *)
    for _ = 0 to String.length tag + 1 do
      advance ()
    done;
    let rec go () =
      if !pos < n then
        if matches_close () then
          for _ = 1 to m do
            advance ()
          done
        else begin
          advance ();
          go ()
        end
    in
    go ()
  in
  (* At [']: the length of the char literal starting here (['a'], ['\n'],
     ['\123'], ['\o177'], ['\xAB']), or 1 for a lone quote (a type
     variable, or an apostrophe in a comment). *)
  let quote_length () =
    let closes k = peek k = Some '\'' in
    let rec all p k m =
      m = 0
      || ((match peek k with Some c -> p c | None -> false)
         && all p (k + 1) (m - 1))
    in
    match (peek 1, peek 2) with
    | Some '\\', Some ('\\' | '"' | '\'' | 'n' | 't' | 'b' | 'r' | ' ')
      when closes 3 ->
        4
    | Some '\\', Some '0' .. '9' when all is_digit 2 3 && closes 5 -> 6
    | Some '\\', Some 'o' when all is_octal_digit 3 3 && closes 6 -> 7
    | Some '\\', Some 'x' when all is_hex_digit 3 2 && closes 5 -> 6
    | Some c, Some '\'' when c <> '\\' && c <> '\'' -> 3
    | _ -> 1
  in
  let skip k =
    for _ = 1 to k do
      advance ()
    done
  in
  (* At ["(*"]: nested comments.  String and char literals inside are
     lexed as OCaml does, so a ["*)"] inside a string does not close the
     comment and the quote in ['"'] does not open a string. *)
  let skip_comment () =
    advance ();
    advance ();
    let depth = ref 1 in
    while !depth > 0 && !pos < n do
      match (cur (), peek 1) with
      | Some '(', Some '*' ->
          advance ();
          advance ();
          incr depth
      | Some '*', Some ')' ->
          advance ();
          advance ();
          decr depth
      | Some '"', _ -> skip_string ()
      | Some '\'', _ -> skip (quote_length ())
      | Some '{', _ -> (
          match quoted_tag () with
          | Some tag -> skip_quoted tag
          | None -> advance ())
      | _ -> advance ()
    done
  in
  let lex_ident_from buf tl tc =
    let rec part () =
      let continue = ref true in
      while !continue do
        match cur () with
        | Some c when is_ident_char c ->
            Buffer.add_char buf c;
            advance ()
        | _ -> continue := false
      done;
      match (cur (), peek 1) with
      | Some '.', Some c2 when is_ident_start c2 ->
          Buffer.add_char buf '.';
          advance ();
          part ()
      | _ -> ()
    in
    part ();
    emit Ident (Buffer.contents buf) tl tc
  in
  let lex_number tl tc =
    let buf = Buffer.create 8 in
    let is_float = ref false in
    let take () =
      Buffer.add_char buf (Option.get (cur ()));
      advance ()
    in
    (if cur () = Some '0' && (peek 1 = Some 'x' || peek 1 = Some 'X') then begin
       take ();
       take ();
       let continue = ref true in
       while !continue do
         match cur () with
         | Some c when is_hex_digit c || c = '_' -> take ()
         | _ -> continue := false
       done
     end
     else begin
       let digits () =
         let continue = ref true in
         while !continue do
           match cur () with
           | Some c when is_digit c || c = '_' -> take ()
           | _ -> continue := false
         done
       in
       digits ();
       (match cur () with
       | Some '.' ->
           is_float := true;
           take ();
           digits ()
       | _ -> ());
       match cur () with
       | Some ('e' | 'E') ->
           let signed_digit =
             match (peek 1, peek 2) with
             | Some c, _ when is_digit c -> true
             | Some ('+' | '-'), Some c when is_digit c -> true
             | _ -> false
           in
           if signed_digit then begin
             is_float := true;
             take ();
             (match cur () with Some ('+' | '-') -> take () | _ -> ());
             digits ()
           end
       | _ -> ()
     end);
    (match cur () with
    | Some ('l' | 'L' | 'n') when not !is_float -> take ()
    | _ -> ());
    emit (if !is_float then Float_lit else Int_lit) (Buffer.contents buf) tl tc
  in
  (* At [']: a char literal is one Punct token; so is a lone quote (type
     variables).  Quotes *inside* identifiers are consumed by the
     identifier lexer first. *)
  let lex_quote tl tc =
    let k = quote_length () in
    let text = String.sub src !pos k in
    skip k;
    emit Punct text tl tc
  in
  while !pos < n do
    let c = src.[!pos] in
    let tl = !line and tc = !pos - !bol + 1 in
    if c = ' ' || c = '\t' || c = '\r' || c = '\n' then advance ()
    else if c = '(' && peek 1 = Some '*' then skip_comment ()
    else if c = '"' then skip_string ()
    else if c = '{' && quoted_tag () <> None then
      skip_quoted (Option.get (quoted_tag ()))
    else if is_ident_start c then lex_ident_from (Buffer.create 16) tl tc
    else if is_digit c then lex_number tl tc
    else if c = '\'' then lex_quote tl tc
    else if
      c = '.'
      && (match peek 1 with Some c2 -> is_ident_start c2 | None -> false)
    then begin
      (* field/projection chain after a closing paren: [.Item.profit] *)
      let buf = Buffer.create 16 in
      Buffer.add_char buf '.';
      advance ();
      lex_ident_from buf tl tc
    end
    else if is_op_char c then begin
      let buf = Buffer.create 4 in
      let continue = ref true in
      while !continue do
        match cur () with
        | Some c when is_op_char c || c = '.' ->
            Buffer.add_char buf c;
            advance ()
        | _ -> continue := false
      done;
      emit Op (Buffer.contents buf) tl tc
    end
    else begin
      emit Punct (String.make 1 c) tl tc;
      advance ()
    end
  done;
  Array.of_list (List.rev !toks)
