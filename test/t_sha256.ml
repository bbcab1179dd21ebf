(* SHA-256 against FIPS/NIST vectors plus incremental-API properties. *)

open Crypto

let check_hex = Alcotest.(check string)

(* NIST FIPS 180-4 example vectors plus a few from the NESSIE set. *)
let known_vectors =
  [
    ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
    ( "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
      "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1" );
    ("message digest", "f7846f55cf23e14eebeab5b4e1550cad5b509e3348fbc4efa3a1413d393cb650");
    ("a", "ca978112ca1bbdcafac231b39a23dc4da786eff8147c4e72b9807785afee48bb");
  ]

let test_vectors () =
  List.iter (fun (input, expect) -> check_hex input expect (Sha256.hex input)) known_vectors

let test_million_a () =
  (* The classic 1,000,000 x 'a' vector, fed in uneven chunks. *)
  let ctx = Sha256.init () in
  let chunk = String.make 997 'a' in
  let fed = ref 0 in
  while !fed + 997 <= 1_000_000 do
    Sha256.update ctx chunk;
    fed := !fed + 997
  done;
  Sha256.update ctx (String.make (1_000_000 - !fed) 'a');
  check_hex "million a" "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Hex.encode (Sha256.finalize ctx))

let test_block_boundaries () =
  (* Inputs straddling the 64-byte block and 56-byte padding boundaries. *)
  List.iter
    (fun len ->
      let s = String.make len 'x' in
      let one_shot = Sha256.digest s in
      let ctx = Sha256.init () in
      String.iter (fun c -> Sha256.update ctx (String.make 1 c)) s;
      Alcotest.(check string)
        (Printf.sprintf "len %d bytewise = one-shot" len)
        (Hex.encode one_shot)
        (Hex.encode (Sha256.finalize ctx)))
    [ 0; 1; 55; 56; 57; 63; 64; 65; 119; 120; 127; 128; 129 ]

let test_digest_list () =
  let parts = [ "ab"; ""; "c" ] in
  Alcotest.(check string)
    "digest_list = digest of concat"
    (Hex.encode (Sha256.digest "abc"))
    (Hex.encode (Sha256.digest_list parts))

let test_digest_size () =
  Alcotest.(check int) "32 bytes" 32 (String.length (Sha256.digest "anything"));
  Alcotest.(check int) "constant" 32 Sha256.digest_size

let test_update_bytes_slice () =
  let b = Bytes.of_string "xxabcyy" in
  let ctx = Sha256.init () in
  Sha256.update_bytes ctx b 2 3;
  Alcotest.(check string)
    "slice hashing"
    (Hex.encode (Sha256.digest "abc"))
    (Hex.encode (Sha256.finalize ctx))

let test_update_bytes_bounds () =
  let ctx = Sha256.init () in
  Alcotest.check_raises "negative offset"
    (Invalid_argument "Sha256.update_bytes: slice out of bounds") (fun () ->
      Sha256.update_bytes ctx (Bytes.create 4) (-1) 2)

let qcheck_incremental =
  QCheck.Test.make ~name:"qcheck: random split incremental = one-shot" ~count:300
    QCheck.(pair (string_of_size Gen.(0 -- 300)) (int_range 0 300))
    (fun (s, cut) ->
      let cut = min cut (String.length s) in
      let ctx = Sha256.init () in
      Sha256.update ctx (String.sub s 0 cut);
      Sha256.update ctx (String.sub s cut (String.length s - cut));
      Sha256.finalize ctx = Sha256.digest s)

let qcheck_avalanche =
  QCheck.Test.make ~name:"qcheck: different inputs, different digests" ~count:300
    QCheck.(pair (string_of_size Gen.(1 -- 64)) (string_of_size Gen.(1 -- 64)))
    (fun (a, b) -> a = b || Sha256.digest a <> Sha256.digest b)

let suite =
  [
    Alcotest.test_case "NIST vectors" `Quick test_vectors;
    Alcotest.test_case "million 'a'" `Slow test_million_a;
    Alcotest.test_case "block boundaries" `Quick test_block_boundaries;
    Alcotest.test_case "digest_list" `Quick test_digest_list;
    Alcotest.test_case "digest size" `Quick test_digest_size;
    Alcotest.test_case "update_bytes slice" `Quick test_update_bytes_slice;
    Alcotest.test_case "update_bytes bounds check" `Quick test_update_bytes_bounds;
    QCheck_alcotest.to_alcotest qcheck_incremental;
    QCheck_alcotest.to_alcotest qcheck_avalanche;
  ]
