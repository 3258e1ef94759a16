(* FIPS 180-4 SHA-256 over 32-bit words stored in OCaml ints (lower 32 bits
   significant; [mask] truncates after arithmetic). *)

let mask = 0xFFFFFFFF

let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
    0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
    0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
    0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
    0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
    0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
    0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
    0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
    0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

type ctx = {
  h : int array; (* 8 state words *)
  buf : Bytes.t; (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total : int; (* bytes fed so far *)
  w : int array; (* message schedule scratch *)
  mutable finalized : bool;
}

let init () =
  {
    h =
      [|
        0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
        0x1f83d9ab; 0x5be0cd19;
      |];
    buf = Bytes.create 64;
    buf_len = 0;
    total = 0;
    w = Array.make 64 0;
    finalized = false;
  }

let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask

let compress ctx block off =
  let w = ctx.w in
  for i = 0 to 15 do
    let base = off + (4 * i) in
    w.(i) <-
      (Char.code (Bytes.get block base) lsl 24)
      lor (Char.code (Bytes.get block (base + 1)) lsl 16)
      lor (Char.code (Bytes.get block (base + 2)) lsl 8)
      lor Char.code (Bytes.get block (base + 3))
  done;
  for i = 16 to 63 do
    let s0 = rotr w.(i - 15) 7 lxor rotr w.(i - 15) 18 lxor (w.(i - 15) lsr 3) in
    let s1 = rotr w.(i - 2) 17 lxor rotr w.(i - 2) 19 lxor (w.(i - 2) lsr 10) in
    w.(i) <- (w.(i - 16) + s0 + w.(i - 7) + s1) land mask
  done;
  let h = ctx.h in
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for i = 0 to 63 do
    let s1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
    let ch = !e land !f lxor (lnot !e land !g) in
    let temp1 = (!hh + s1 + ch + k.(i) + w.(i)) land mask in
    let s0 = rotr !a 2 lxor rotr !a 13 lxor rotr !a 22 in
    let maj = !a land !b lxor (!a land !c) lxor (!b land !c) in
    let temp2 = (s0 + maj) land mask in
    hh := !g;
    g := !f;
    f := !e;
    e := (!d + temp1) land mask;
    d := !c;
    c := !b;
    b := !a;
    a := (temp1 + temp2) land mask
  done;
  h.(0) <- (h.(0) + !a) land mask;
  h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !c) land mask;
  h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask;
  h.(5) <- (h.(5) + !f) land mask;
  h.(6) <- (h.(6) + !g) land mask;
  h.(7) <- (h.(7) + !hh) land mask

let feed_sub ctx src off len =
  if ctx.finalized then invalid_arg "Sha256: context already finalized";
  ctx.total <- ctx.total + len;
  let pos = ref off in
  let remaining = ref len in
  (* Fill a partial block first. *)
  if ctx.buf_len > 0 then begin
    let take = min !remaining (64 - ctx.buf_len) in
    Bytes.blit src !pos ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := !pos + take;
    remaining := !remaining - take;
    if ctx.buf_len = 64 then begin
      compress ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  while !remaining >= 64 do
    compress ctx src !pos;
    pos := !pos + 64;
    remaining := !remaining - 64
  done;
  if !remaining > 0 then begin
    Bytes.blit src !pos ctx.buf 0 !remaining;
    ctx.buf_len <- !remaining
  end

let feed_bytes ctx b = feed_sub ctx b 0 (Bytes.length b)
let feed_string ctx s = feed_sub ctx (Bytes.unsafe_of_string s) 0 (String.length s)

(* Pad the buffered tail in place and run the final compression(s): the
   digest is left in [ctx.h], nothing is allocated. *)
let pad ctx =
  if ctx.finalized then invalid_arg "Sha256: context already finalized";
  let bit_len = ctx.total * 8 in
  let buf = ctx.buf in
  Bytes.set buf ctx.buf_len '\x80';
  Bytes.fill buf (ctx.buf_len + 1) (63 - ctx.buf_len) '\000';
  if ctx.buf_len >= 56 then begin
    compress ctx buf 0;
    Bytes.fill buf 0 56 '\000'
  end;
  for i = 0 to 7 do
    Bytes.set buf (56 + i) (Char.unsafe_chr ((bit_len lsr (8 * (7 - i))) land 0xff))
  done;
  compress ctx buf 0;
  ctx.buf_len <- 0;
  ctx.finalized <- true

(* Big-endian serialization of the 8 state words into [out] at [off]. *)
let write_state h out off =
  for i = 0 to 7 do
    let v = h.(i) in
    Bytes.set out (off + (4 * i)) (Char.unsafe_chr ((v lsr 24) land 0xff));
    Bytes.set out (off + (4 * i) + 1) (Char.unsafe_chr ((v lsr 16) land 0xff));
    Bytes.set out (off + (4 * i) + 2) (Char.unsafe_chr ((v lsr 8) land 0xff));
    Bytes.set out (off + (4 * i) + 3) (Char.unsafe_chr (v land 0xff))
  done

let finalize ctx =
  pad ctx;
  let out = Bytes.create 32 in
  write_state ctx.h out 0;
  Bytes.unsafe_to_string out

let digest_string s =
  let ctx = init () in
  feed_string ctx s;
  finalize ctx

(* HMAC (RFC 2104) with the key absorbed once: [inner]/[outer] are the
   chaining values after compressing the key block XOR ipad/opad, so a
   MAC costs the message blocks plus one outer block. *)
type hmac_key = { inner : int array; outer : int array }

let hmac_key key =
  let key = if String.length key > 64 then digest_string key else key in
  let block = Bytes.create 64 in
  let midstate fill =
    Bytes.fill block 0 64 fill;
    String.iteri
      (fun i c -> Bytes.set block i (Char.unsafe_chr (Char.code c lxor Char.code fill)))
      key;
    let ctx = init () in
    compress ctx block 0;
    ctx.h
  in
  let inner = midstate '\x36' in
  { inner; outer = midstate '\x5c' }

(* Restart [ctx] from a keyed midstate: one 64-byte key block absorbed. *)
let restart ctx state ~buffered =
  Array.blit state 0 ctx.h 0 8;
  ctx.buf_len <- buffered;
  ctx.total <- 64 + buffered;
  ctx.finalized <- false

let hmac_into key ctx msg out =
  restart ctx key.inner ~buffered:0;
  feed_string ctx msg;
  pad ctx;
  (* The inner digest is the whole outer message: it goes straight into
     the block buffer of the same context. *)
  write_state ctx.h ctx.buf 0;
  restart ctx key.outer ~buffered:32;
  pad ctx;
  write_state ctx.h out 0

let hmac_keyed key msg =
  let out = Bytes.create 32 in
  hmac_into key (init ()) msg out;
  Bytes.unsafe_to_string out

let hmac ~key msg = hmac_keyed (hmac_key key) msg

let to_hex raw =
  let buf = Buffer.create (2 * String.length raw) in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) raw;
  Buffer.contents buf
