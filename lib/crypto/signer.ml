type public = int
type keypair = { pub : public; key : Sha256.hmac_key }
type registry = keypair array
type signature = string

let keygen ~cluster_seed ~replica =
  let secret = Sha256.digest_string (Printf.sprintf "shoalpp-secret-%d-%d" cluster_seed replica) in
  { pub = replica; key = Sha256.hmac_key secret }

let registry ~cluster_seed ~n = Array.init n (fun replica -> keygen ~cluster_seed ~replica)
let size = Array.length

let keypair reg pub =
  if pub < 0 || pub >= Array.length reg then invalid_arg "Signer.keypair: replica out of range";
  reg.(pub)

let public kp = kp.pub
let sign kp msg = Sha256.hmac_keyed kp.key msg
let sign_into kp scratch msg out = Sha256.hmac_into kp.key scratch msg out

let verify reg pub msg signature =
  pub >= 0 && pub < Array.length reg && String.equal (sign reg.(pub) msg) signature

let signature_size = 48
let raw s = s

let of_raw s =
  if String.length s <> 32 then invalid_arg "Signer.of_raw: need 32 bytes";
  s
let pp fmt s = Format.pp_print_string fmt (String.sub (Sha256.to_hex s) 0 8)
