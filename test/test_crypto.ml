(* Tests for the crypto substrate: SHA-256 / HMAC against published
   vectors, cipher and onion round-trips and known answers, simulated
   signatures and certificates, wire-size accounting. *)

open Octo_crypto
module Rng = Octo_sim.Rng

(* ------------------------------------------------------------------ *)
(* SHA-256 (FIPS 180-4 vectors) *)

let check_digest msg input expected =
  Alcotest.(check string) msg expected (Sha256.hex (Sha256.digest_string input))

let test_sha256_empty () =
  check_digest "empty" "" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

let test_sha256_abc () =
  check_digest "abc" "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"

let test_sha256_448bits () =
  check_digest "two-block" "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"

let test_sha256_million_a () =
  check_digest "million a" (String.make 1_000_000 'a')
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"

let test_sha256_55_56_bytes () =
  (* Around the padding boundary. *)
  check_digest "55 bytes" (String.make 55 'x')
    (Sha256.hex (Sha256.digest_bytes (Bytes.make 55 'x')));
  let d55 = Sha256.hex (Sha256.digest_string (String.make 55 'a')) in
  let d56 = Sha256.hex (Sha256.digest_string (String.make 56 'a')) in
  let d64 = Sha256.hex (Sha256.digest_string (String.make 64 'a')) in
  Alcotest.(check bool) "distinct digests" true (d55 <> d56 && d56 <> d64)

let test_sha256_hex_all_bytes () =
  let all = Bytes.init 256 Char.chr in
  let expected = String.concat "" (List.init 256 (Printf.sprintf "%02x")) in
  Alcotest.(check string) "every byte value" expected (Sha256.hex all);
  Alcotest.(check string) "empty" "" (Sha256.hex Bytes.empty)

let prop_sha256_incremental =
  QCheck.Test.make ~name:"incremental update = one-shot" ~count:200
    QCheck.(pair string (int_range 1 64))
    (fun (s, chunk) ->
      let ctx = Sha256.init () in
      let len = String.length s in
      let pos = ref 0 in
      while !pos < len do
        let take = min chunk (len - !pos) in
        Sha256.update_string ctx (String.sub s !pos take);
        pos := !pos + take
      done;
      Bytes.equal (Sha256.finalize ctx) (Sha256.digest_string s))

let prop_sha256_distinct =
  QCheck.Test.make ~name:"distinct inputs hash differently" ~count:200
    QCheck.(pair string string)
    (fun (a, b) ->
      QCheck.assume (a <> b);
      not (Bytes.equal (Sha256.digest_string a) (Sha256.digest_string b)))

(* ------------------------------------------------------------------ *)
(* HMAC-SHA256 (RFC 4231 vectors) *)

let test_hmac_rfc4231_case1 () =
  let key = Bytes.make 20 '\x0b' in
  let tag = Hmac.mac_string ~key "Hi There" in
  Alcotest.(check string) "case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7" (Sha256.hex tag)

let test_hmac_rfc4231_case2 () =
  let key = Bytes.of_string "Jefe" in
  let tag = Hmac.mac_string ~key "what do ya want for nothing?" in
  Alcotest.(check string) "case 2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843" (Sha256.hex tag)

let test_hmac_rfc4231_case6 () =
  (* 131-byte key: exercises the hash-the-key path. *)
  let key = Bytes.make 131 '\xaa' in
  let tag = Hmac.mac_string ~key "Test Using Larger Than Block-Size Key - Hash Key First" in
  Alcotest.(check string) "case 6"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54" (Sha256.hex tag)

let test_hmac_verify () =
  let key = Bytes.of_string "secret" in
  let msg = Bytes.of_string "message" in
  let tag = Hmac.mac ~key msg in
  Alcotest.(check bool) "verifies" true (Hmac.verify ~key msg ~tag);
  Alcotest.(check bool) "wrong msg" false (Hmac.verify ~key (Bytes.of_string "other") ~tag);
  Alcotest.(check bool) "wrong key" false
    (Hmac.verify ~key:(Bytes.of_string "nope") msg ~tag);
  Alcotest.(check bool) "truncated tag" false
    (Hmac.verify ~key msg ~tag:(Bytes.sub tag 0 16))

(* ------------------------------------------------------------------ *)
(* Cipher *)

let bytes_gen = QCheck.map Bytes.of_string QCheck.string

let prop_cipher_roundtrip =
  QCheck.Test.make ~name:"ctr decrypt . encrypt = id" ~count:200 bytes_gen (fun plain ->
      let key = Bytes.make Cipher.key_size 'k' in
      let nonce = Bytes.make Cipher.nonce_size 'n' in
      let ct = Cipher.encrypt ~key ~nonce plain in
      Bytes.equal plain (Cipher.decrypt ~key ~nonce ct))

(* Known answers pin the keystream bytes, so a faster keystream that
   changed the ciphertext fails here rather than only in a round trip.
   The literals were recorded from the byte-at-a-time HMAC construction;
   the model check recomputes each 32-byte block as
   HMAC(key, nonce ‖ be64 counter). *)
let kat_key = Bytes.init Cipher.key_size (fun i -> Char.chr (0x10 + i))
let kat_nonce = Bytes.init Cipher.nonce_size (fun i -> Char.chr (0xa0 + i))
let kat_plain len = Bytes.init len (fun i -> Char.chr (((i * 37) + 5) land 0xFF))

let cipher_kat_80 =
  "36db54bc297468301d247f4e80052499af08163602ae114eb535b774a590dee1"
  ^ "844a3d3815e06b46fbeb9c6a3b9ee1fb530c0328a49b8cd3d827bd92d8827d75"
  ^ "99c748f81f2a1475155899f3e0b8af4f"

let model_encrypt ~key ~nonce plain =
  Bytes.mapi
    (fun i c ->
      let msg = Bytes.create (Cipher.nonce_size + 8) in
      Bytes.blit nonce 0 msg 0 Cipher.nonce_size;
      Bytes.set_int64_be msg Cipher.nonce_size (Int64.of_int (i / 32));
      let block = Hmac.mac ~key msg in
      Char.chr (Char.code c lxor Char.code (Bytes.get block (i mod 32))))
    plain

let test_cipher_known_answers () =
  List.iter
    (fun len ->
      let plain = kat_plain len in
      let ct = Cipher.encrypt ~key:kat_key ~nonce:kat_nonce plain in
      let name = Printf.sprintf "length %d" len in
      Alcotest.(check string) (name ^ " literal") (String.sub cipher_kat_80 0 (2 * len))
        (Sha256.hex ct);
      Alcotest.(check string) (name ^ " hmac model")
        (Sha256.hex (model_encrypt ~key:kat_key ~nonce:kat_nonce plain))
        (Sha256.hex ct))
    [ 1; 32; 33; 80 ]

let prop_cipher_matches_model =
  QCheck.Test.make ~name:"ctr keystream = HMAC(key, nonce || be64 counter)" ~count:100
    QCheck.(triple (string_of_size (Gen.return 16)) (string_of_size (Gen.return 16)) string)
    (fun (key, nonce, plain) ->
      let key = Bytes.of_string key and nonce = Bytes.of_string nonce in
      let plain = Bytes.of_string plain in
      Bytes.equal (Cipher.encrypt ~key ~nonce plain) (model_encrypt ~key ~nonce plain))

let test_cipher_length () =
  let key = Bytes.make Cipher.key_size 'k' and nonce = Bytes.make Cipher.nonce_size 'n' in
  for len = 0 to 100 do
    let ct = Cipher.encrypt ~key ~nonce (Bytes.make len 'p') in
    Alcotest.(check int) "length preserved" len (Bytes.length ct)
  done

let test_cipher_nonce_matters () =
  let key = Bytes.make Cipher.key_size 'k' in
  let plain = Bytes.make 64 'p' in
  let c1 = Cipher.encrypt ~key ~nonce:(Bytes.make 16 '1') plain in
  let c2 = Cipher.encrypt ~key ~nonce:(Bytes.make 16 '2') plain in
  Alcotest.(check bool) "different nonces differ" false (Bytes.equal c1 c2)

let test_cipher_key_matters () =
  let nonce = Bytes.make 16 'n' in
  let plain = Bytes.make 64 'p' in
  let c1 = Cipher.encrypt ~key:(Bytes.make 16 'a') ~nonce plain in
  let c2 = Cipher.encrypt ~key:(Bytes.make 16 'b') ~nonce plain in
  Alcotest.(check bool) "different keys differ" false (Bytes.equal c1 c2)

(* ------------------------------------------------------------------ *)
(* Keys *)

let test_keys_sign_verify () =
  let reg = Keys.create_registry () in
  let rng = Rng.create ~seed:1 in
  let kp = Keys.generate reg rng in
  let msg = Bytes.of_string "routing table" in
  let s = Keys.sign kp.Keys.secret msg in
  Alcotest.(check bool) "verifies" true (Keys.verify reg kp.Keys.public msg s);
  Alcotest.(check bool) "wrong message" false
    (Keys.verify reg kp.Keys.public (Bytes.of_string "tampered") s);
  Alcotest.(check bool) "forge fails" false (Keys.verify reg kp.Keys.public msg Keys.forge)

let test_keys_cross_verify_fails () =
  let reg = Keys.create_registry () in
  let rng = Rng.create ~seed:2 in
  let a = Keys.generate reg rng and b = Keys.generate reg rng in
  let msg = Bytes.of_string "m" in
  let s = Keys.sign a.Keys.secret msg in
  Alcotest.(check bool) "b cannot claim a's signature" false
    (Keys.verify reg b.Keys.public msg s)

let test_keys_unregistered () =
  let reg1 = Keys.create_registry () and reg2 = Keys.create_registry () in
  let rng = Rng.create ~seed:3 in
  let kp = Keys.generate reg1 rng in
  let msg = Bytes.of_string "m" in
  let s = Keys.sign kp.Keys.secret msg in
  Alcotest.(check bool) "unknown in other registry" false
    (Keys.verify reg2 kp.Keys.public msg s)

let test_keys_distinct () =
  let reg = Keys.create_registry () in
  let rng = Rng.create ~seed:4 in
  let a = Keys.generate reg rng and b = Keys.generate reg rng in
  Alcotest.(check bool) "publics distinct" false (Keys.public_equal a.Keys.public b.Keys.public)

(* ------------------------------------------------------------------ *)
(* Certificates *)

let make_authority () =
  let reg = Keys.create_registry () in
  let rng = Rng.create ~seed:5 in
  (reg, rng, Cert.create_authority reg rng)

let test_cert_issue_verify () =
  let reg, rng, auth = make_authority () in
  let kp = Keys.generate reg rng in
  let cert = Cert.issue auth ~node_id:42 ~addr:7 ~public:kp.Keys.public ~now:0.0 ~expires:100.0 in
  Alcotest.(check bool) "valid" true (Cert.verify auth ~now:50.0 cert);
  Alcotest.(check bool) "expired" false (Cert.verify auth ~now:150.0 cert)

let test_cert_tamper () =
  let reg, rng, auth = make_authority () in
  let kp = Keys.generate reg rng in
  let cert = Cert.issue auth ~node_id:42 ~addr:7 ~public:kp.Keys.public ~now:0.0 ~expires:100.0 in
  let forged = { cert with Cert.node_id = 43 } in
  Alcotest.(check bool) "tampered id fails" false (Cert.verify auth ~now:50.0 forged);
  let forged_addr = { cert with Cert.addr = 8 } in
  Alcotest.(check bool) "tampered addr fails" false (Cert.verify auth ~now:50.0 forged_addr)

let test_cert_revocation () =
  let reg, rng, auth = make_authority () in
  let kp = Keys.generate reg rng in
  let cert = Cert.issue auth ~node_id:42 ~addr:7 ~public:kp.Keys.public ~now:0.0 ~expires:100.0 in
  Alcotest.(check bool) "not revoked" false (Cert.is_revoked auth ~node_id:42);
  Cert.revoke auth ~now:10.0 ~node_id:42;
  Alcotest.(check bool) "revoked" true (Cert.is_revoked auth ~node_id:42);
  Alcotest.(check bool) "verify fails after revocation" false (Cert.verify auth ~now:50.0 cert);
  Alcotest.(check bool) "pre-revocation documents still verifiable" true
    (Cert.verify auth ~now:5.0 cert);
  Alcotest.(check (option (float 0.001))) "revocation time recorded" (Some 10.0)
    (Cert.revoked_at auth ~node_id:42);
  Cert.revoke auth ~now:10.0 ~node_id:42;
  Alcotest.(check int) "idempotent" 1 (Cert.revoked_count auth)

(* ------------------------------------------------------------------ *)
(* Onion *)

let test_onion_wrap_peel () =
  let rng = Rng.create ~seed:6 in
  let keys = List.init 3 (fun _ -> Onion.gen_key rng) in
  let payload = Bytes.of_string "the query" in
  let wrapped = Onion.wrap ~rng ~keys payload in
  Alcotest.(check int) "size grows per layer"
    (Bytes.length payload + (3 * Onion.layer_overhead))
    (Bytes.length wrapped);
  (* Peel in path order: first key outermost. *)
  let step1 = Option.get (Onion.peel ~key:(List.nth keys 0) wrapped) in
  let step2 = Option.get (Onion.peel ~key:(List.nth keys 1) step1) in
  let step3 = Option.get (Onion.peel ~key:(List.nth keys 2) step2) in
  Alcotest.(check bytes) "payload recovered" payload step3

let test_onion_peel_all () =
  let rng = Rng.create ~seed:7 in
  let keys = List.init 5 (fun _ -> Onion.gen_key rng) in
  let payload = Bytes.of_string "reply" in
  let wrapped = Onion.wrap ~rng ~keys payload in
  Alcotest.(check (option bytes)) "peel_all" (Some payload) (Onion.peel_all ~keys wrapped)

let test_onion_wrong_key_garbles () =
  let rng = Rng.create ~seed:8 in
  let k1 = Onion.gen_key rng and k2 = Onion.gen_key rng in
  let payload = Bytes.of_string "a reasonably long payload to compare" in
  let wrapped = Onion.wrap ~rng ~keys:[ k1 ] payload in
  let peeled = Option.get (Onion.peel ~key:k2 wrapped) in
  Alcotest.(check bool) "wrong key garbles" false (Bytes.equal payload peeled)

let test_onion_reply_layering () =
  (* Relays add layers on the way back; initiator peels them all. *)
  let rng = Rng.create ~seed:9 in
  let k1 = Onion.gen_key rng and k2 = Onion.gen_key rng in
  let payload = Bytes.of_string "reply body" in
  let after_relay2 = Onion.add_layer ~rng ~key:k2 payload in
  let after_relay1 = Onion.add_layer ~rng ~key:k1 after_relay2 in
  Alcotest.(check (option bytes)) "initiator peels k1 then k2" (Some payload)
    (Onion.peel_all ~keys:[ k1; k2 ] after_relay1)

let test_onion_too_short () =
  let key = Bytes.make 16 'k' in
  Alcotest.(check (option bytes)) "short ciphertext" None (Onion.peel ~key (Bytes.make 3 'x'))

let test_onion_unlinkable () =
  let rng = Rng.create ~seed:10 in
  let key = Onion.gen_key rng in
  let payload = Bytes.of_string "same payload" in
  let w1 = Onion.wrap ~rng ~keys:[ key ] payload in
  let w2 = Onion.wrap ~rng ~keys:[ key ] payload in
  Alcotest.(check bool) "fresh nonces" false (Bytes.equal w1 w2)

let test_onion_known_answer () =
  let rng = Rng.create ~seed:42 in
  let keys = List.init 3 (fun _ -> Onion.gen_key rng) in
  let wrapped = Onion.wrap ~rng ~keys (Bytes.of_string "octopus query") in
  Alcotest.(check string) "three-layer capsule"
    ("7139100c343bb5ae6589af7398db694acdc21e76b8ba8b8599e4e66bf2178404"
    ^ "1c4bd00388d548b10fc41efa6817a7b5c7b507ad85fbf9911c851b7b2c")
    (Sha256.hex wrapped)

let prop_onion_roundtrip =
  QCheck.Test.make ~name:"wrap then peel layer-by-layer = id" ~count:200
    QCheck.(triple small_int (int_range 0 8) bytes_gen)
    (fun (seed, layers, payload) ->
      let rng = Rng.create ~seed in
      let keys = List.init layers (fun _ -> Onion.gen_key rng) in
      let wrapped = Onion.wrap ~rng ~keys payload in
      let peeled =
        List.fold_left
          (fun acc key -> match acc with Some b -> Onion.peel ~key b | None -> None)
          (Some wrapped) keys
      in
      peeled = Some payload)

let prop_onion_peel_all_roundtrip =
  QCheck.Test.make ~name:"peel_all inverts wrap for any depth" ~count:200
    QCheck.(triple small_int (int_range 0 8) bytes_gen)
    (fun (seed, layers, payload) ->
      let rng = Rng.create ~seed in
      let keys = List.init layers (fun _ -> Onion.gen_key rng) in
      Onion.peel_all ~keys (Onion.wrap ~rng ~keys payload) = Some payload)

let prop_onion_size_linear =
  QCheck.Test.make ~name:"wrapped size = payload + layers * overhead" ~count:100
    QCheck.(triple small_int (int_range 0 8) bytes_gen)
    (fun (seed, layers, payload) ->
      let rng = Rng.create ~seed in
      let keys = List.init layers (fun _ -> Onion.gen_key rng) in
      Bytes.length (Onion.wrap ~rng ~keys payload)
      = Bytes.length payload + (layers * Onion.layer_overhead))

(* ------------------------------------------------------------------ *)
(* Codec primitives *)

let prop_codec_scalars_roundtrip =
  QCheck.Test.make ~name:"u8/u16/u32/u64/f64 write then read = id" ~count:300
    QCheck.(
      tup5 (int_bound 0xFF) (int_bound 0xFFFF) (int_bound 0xFFFFFFFF) pos_int
        (float_bound_exclusive 1e12))
    (fun (a, b, c, d, e) ->
      let w = Codec.Writer.create () in
      Codec.Writer.u8 w a;
      Codec.Writer.u16 w b;
      Codec.Writer.u32 w c;
      Codec.Writer.u64 w d;
      Codec.Writer.f64 w e;
      let r = Codec.Reader.create (Codec.Writer.contents w) in
      let a' = Codec.Reader.u8 r in
      let b' = Codec.Reader.u16 r in
      let c' = Codec.Reader.u32 r in
      let d' = Codec.Reader.u64 r in
      let e' = Codec.Reader.f64 r in
      Codec.Reader.expect_end r;
      (a, b, c, d, e) = (a', b', c', d', e'))

let prop_codec_compound_roundtrip =
  QCheck.Test.make ~name:"bytes/list/option write then read = id" ~count:300
    QCheck.(pair (small_list bytes_gen) (option (int_bound 0xFFFF)))
    (fun (bl, opt) ->
      let w = Codec.Writer.create () in
      Codec.Writer.list w (Codec.Writer.bytes w) bl;
      Codec.Writer.option w (Codec.Writer.u16 w) opt;
      let r = Codec.Reader.create (Codec.Writer.contents w) in
      let bl' = Codec.Reader.list r Codec.Reader.bytes in
      let opt' = Codec.Reader.option r Codec.Reader.u16 in
      Codec.Reader.expect_end r;
      bl = bl' && opt = opt')

let prop_codec_truncation_raises =
  QCheck.Test.make ~name:"truncated input raises, never misreads" ~count:200 bytes_gen
    (fun payload ->
      let w = Codec.Writer.create () in
      Codec.Writer.bytes w payload;
      let full = Codec.Writer.contents w in
      let cut = Bytes.sub full 0 (Bytes.length full - 1) in
      match Codec.Reader.bytes (Codec.Reader.create cut) with
      | _ -> false
      | exception Codec.Reader.Truncated -> true)

(* ------------------------------------------------------------------ *)
(* Wire *)

let test_wire_sizes () =
  Alcotest.(check int) "routing item" 10 Wire.routing_item;
  Alcotest.(check int) "cert" 50 Wire.certificate;
  Alcotest.(check int) "signature" 40 Wire.signature;
  Alcotest.(check int) "entries" 180 (Wire.routing_entries 18);
  Alcotest.(check int) "signed table"
    (180 + 40 + 4 + 50)
    (Wire.signed_routing_table ~fingers:12 ~succs:6);
  Alcotest.(check int) "signed list" (60 + 40 + 4 + 50) (Wire.signed_list ~entries:6);
  Alcotest.(check bool) "onion adds per layer" true
    (Wire.onion_wrapped ~layers:3 100 > Wire.onion_wrapped ~layers:1 100)

let test_wire_digest_injective () =
  let d1 = Wire.digest_parts [ "ab"; "c" ] in
  let d2 = Wire.digest_parts [ "a"; "bc" ] in
  let d3 = Wire.digest_parts [ "abc" ] in
  Alcotest.(check bool) "field boundaries matter" false (Bytes.equal d1 d2);
  Alcotest.(check bool) "arity matters" false (Bytes.equal d2 d3)

let prop_wire_digest_deterministic =
  QCheck.Test.make ~name:"digest deterministic" ~count:100
    QCheck.(small_list string)
    (fun parts -> Bytes.equal (Wire.digest_parts parts) (Wire.digest_parts parts))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "octo_crypto"
    [
      ( "sha256",
        [
          Alcotest.test_case "empty" `Quick test_sha256_empty;
          Alcotest.test_case "abc" `Quick test_sha256_abc;
          Alcotest.test_case "two-block" `Quick test_sha256_448bits;
          Alcotest.test_case "million a" `Slow test_sha256_million_a;
          Alcotest.test_case "padding boundary" `Quick test_sha256_55_56_bytes;
          Alcotest.test_case "hex all bytes" `Quick test_sha256_hex_all_bytes;
        ]
        @ qsuite [ prop_sha256_incremental; prop_sha256_distinct ] );
      ( "hmac",
        [
          Alcotest.test_case "rfc4231 case 1" `Quick test_hmac_rfc4231_case1;
          Alcotest.test_case "rfc4231 case 2" `Quick test_hmac_rfc4231_case2;
          Alcotest.test_case "rfc4231 case 6" `Quick test_hmac_rfc4231_case6;
          Alcotest.test_case "verify" `Quick test_hmac_verify;
        ] );
      ( "cipher",
        [
          Alcotest.test_case "length preserved" `Quick test_cipher_length;
          Alcotest.test_case "nonce matters" `Quick test_cipher_nonce_matters;
          Alcotest.test_case "key matters" `Quick test_cipher_key_matters;
          Alcotest.test_case "known answers" `Quick test_cipher_known_answers;
        ]
        @ qsuite [ prop_cipher_roundtrip; prop_cipher_matches_model ] );
      ( "keys",
        [
          Alcotest.test_case "sign/verify" `Quick test_keys_sign_verify;
          Alcotest.test_case "cross verify fails" `Quick test_keys_cross_verify_fails;
          Alcotest.test_case "unregistered" `Quick test_keys_unregistered;
          Alcotest.test_case "distinct" `Quick test_keys_distinct;
        ] );
      ( "cert",
        [
          Alcotest.test_case "issue/verify" `Quick test_cert_issue_verify;
          Alcotest.test_case "tamper" `Quick test_cert_tamper;
          Alcotest.test_case "revocation" `Quick test_cert_revocation;
        ] );
      ( "onion",
        [
          Alcotest.test_case "wrap/peel" `Quick test_onion_wrap_peel;
          Alcotest.test_case "peel_all" `Quick test_onion_peel_all;
          Alcotest.test_case "wrong key garbles" `Quick test_onion_wrong_key_garbles;
          Alcotest.test_case "reply layering" `Quick test_onion_reply_layering;
          Alcotest.test_case "too short" `Quick test_onion_too_short;
          Alcotest.test_case "unlinkable" `Quick test_onion_unlinkable;
          Alcotest.test_case "known answer" `Quick test_onion_known_answer;
        ]
        @ qsuite
            [ prop_onion_roundtrip; prop_onion_peel_all_roundtrip; prop_onion_size_linear ] );
      ( "codec",
        qsuite
          [
            prop_codec_scalars_roundtrip;
            prop_codec_compound_roundtrip;
            prop_codec_truncation_raises;
          ] );
      ( "wire",
        [
          Alcotest.test_case "sizes" `Quick test_wire_sizes;
          Alcotest.test_case "digest injective" `Quick test_wire_digest_injective;
        ]
        @ qsuite [ prop_wire_digest_deterministic ] );
    ]
