type t = {
  node_id : int;
  addr : int;
  public : Keys.public;
  issued_at : float;
  expires : float;
  tag : Keys.signature;
}

type authority = {
  keypair : Keys.keypair;
  registry : Keys.registry;
  revoked : (int, float) Hashtbl.t;
}

let create_authority registry rng =
  { keypair = Keys.generate registry rng; registry; revoked = Hashtbl.create 64 }

let binding ~node_id ~addr ~public ~issued_at ~expires =
  Wire.digest_parts
    [
      string_of_int node_id;
      string_of_int addr;
      Keys.public_hex public;
      Printf.sprintf "%.6f" issued_at;
      Printf.sprintf "%.6f" expires;
    ]

let issue auth ~node_id ~addr ~public ~now ~expires =
  let tag =
    Keys.sign auth.keypair.Keys.secret (binding ~node_id ~addr ~public ~issued_at:now ~expires)
  in
  { node_id; addr; public; issued_at = now; expires; tag }

let verify auth ~now cert =
  (match Hashtbl.find_opt auth.revoked cert.node_id with
  | Some at -> now < at
  | None -> true)
  && cert.expires > now
  && cert.issued_at <= now
  && Keys.verify auth.registry auth.keypair.Keys.public
       (binding ~node_id:cert.node_id ~addr:cert.addr ~public:cert.public
          ~issued_at:cert.issued_at ~expires:cert.expires)
       cert.tag

let revoke auth ~now ~node_id =
  if not (Hashtbl.mem auth.revoked node_id) then Hashtbl.replace auth.revoked node_id now

let revoked_at auth ~node_id = Hashtbl.find_opt auth.revoked node_id
let is_revoked auth ~node_id = Hashtbl.mem auth.revoked node_id
let revoked_count auth = Hashtbl.length auth.revoked
