let approx_eq ?(eps = 1e-9) a b =
  let diff = abs_float (a -. b) in
  diff <= eps || diff <= eps *. Float.max (abs_float a) (abs_float b)

let clamp ~lo ~hi x = if x < lo then lo else if x > hi then hi else x

let sum a =
  let total = ref 0. and comp = ref 0. in
  Array.iter
    (fun x ->
      let y = x -. !comp in
      let t = !total +. y in
      comp := t -. !total -. y;
      total := t)
    a;
  !total

let sum_by f a = sum (Array.map f a)
let mean a = if Array.length a = 0 then 0. else sum a /. float_of_int (Array.length a)
let log2 x = log x /. log 2.

let iterated_log2 n =
  let rec go acc n = if n <= 1. then acc else go (acc + 1) (log2 n) in
  go 0 n

(* [%h] rendering, byte for byte as the runtime's hexstring_of_float: a
   sign, "0x", the leading digit (1 normal, 0 zero/subnormal), the 52-bit
   fraction as hex digits without trailing zeros, then "p" and the signed
   decimal exponent (-1022 for subnormals).  The longest rendering is
   "-0x1.fffffffffffffp+1023". *)
let hex_max_length = 24
let hex_nibbles = "0123456789abcdef"

let write_hex buf pos x =
  if pos < 0 || pos > Bytes.length buf - hex_max_length then
    invalid_arg "Float_utils.write_hex: fewer than hex_max_length bytes at pos";
  let bits = Int64.bits_of_float x in
  let pos =
    if Int64.compare bits 0L < 0 then begin
      Bytes.unsafe_set buf pos '-';
      pos + 1
    end
    else pos
  in
  let biased = Int64.to_int (Int64.shift_right_logical bits 52) land 0x7FF in
  let frac = Int64.to_int (Int64.logand bits 0xF_FFFF_FFFF_FFFFL) in
  if biased = 0x7FF then begin
    let word = if frac = 0 then "infinity" else "nan" in
    Bytes.unsafe_blit_string word 0 buf pos (String.length word);
    pos + String.length word
  end
  else begin
    Bytes.unsafe_set buf pos '0';
    Bytes.unsafe_set buf (pos + 1) 'x';
    Bytes.unsafe_set buf (pos + 2) (if biased = 0 then '0' else '1');
    let pos =
      if frac = 0 then pos + 3
      else begin
        (* Drop trailing zero nibbles, then write the rest backwards. *)
        let f = ref frac and digits = ref 13 in
        while !f land 15 = 0 do
          f := !f lsr 4;
          decr digits
        done;
        Bytes.unsafe_set buf (pos + 3) '.';
        for k = !digits - 1 downto 0 do
          Bytes.unsafe_set buf (pos + 4 + k) (String.unsafe_get hex_nibbles (!f land 15));
          f := !f lsr 4
        done;
        pos + 4 + !digits
      end
    in
    let exp = if biased = 0 then if frac = 0 then 0 else -1022 else biased - 1023 in
    Bytes.unsafe_set buf pos 'p';
    Bytes.unsafe_set buf (pos + 1) (if exp < 0 then '-' else '+');
    let e = ref (abs exp) in
    let digits =
      if !e >= 1000 then 4 else if !e >= 100 then 3 else if !e >= 10 then 2 else 1
    in
    for k = digits - 1 downto 0 do
      Bytes.unsafe_set buf (pos + 2 + k) (Char.unsafe_chr (Char.code '0' + (!e mod 10)));
      e := !e / 10
    done;
    pos + 2 + digits
  end
