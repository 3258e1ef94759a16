module Bitset = Shoalpp_support.Bitset

type t = { mask : Bitset.t; combined : string }

let combine sigs =
  let ctx = Sha256.init () in
  List.iter (fun s -> Sha256.feed_string ctx (Signer.raw s)) sigs;
  Sha256.finalize ctx

let add_signer mask pub =
  if pub < 0 || pub >= Bitset.capacity mask then
    invalid_arg "Multisig.aggregate: signer out of range";
  if Bitset.mem mask pub then invalid_arg "Multisig.aggregate: duplicate signer";
  Bitset.set mask pub

let aggregate ~n sigs =
  let mask = Bitset.create n in
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) sigs in
  List.iter (fun (pub, _) -> add_signer mask pub) sorted;
  { mask; combined = combine (List.map snd sorted) }

let signers t = Bitset.copy t.mask
let num_signers t = Bitset.count t.mask
let combined t = t.combined

let of_wire ~n ~signers ~combined =
  if String.length combined <> 32 then invalid_arg "Multisig.of_wire: need a 32-byte hash";
  let mask = Bitset.create n in
  List.iter (add_signer mask) signers;
  { mask; combined }

let verify keys t msg =
  (* Recompute what each signer's signature must be (the registry is public
     within the simulation) and check the combined hash. One scratch
     context and one 32-byte buffer serve every signer. *)
  let n = Signer.size keys in
  let scratch = Sha256.init () and acc = Sha256.init () and mac = Bytes.create 32 in
  let all_known = ref true in
  Bitset.iter
    (fun pub ->
      if pub < n then begin
        Signer.sign_into (Signer.keypair keys pub) scratch msg mac;
        Sha256.feed_bytes acc mac
      end
      else all_known := false)
    t.mask;
  !all_known && String.equal (Sha256.finalize acc) t.combined

let wire_size t = 48 + ((Bitset.capacity t.mask + 7) / 8)

let pp fmt t = Format.fprintf fmt "multisig%a" Bitset.pp t.mask
