(** A deterministic shuffled permutation of [0, n): every key exactly
    once, in random order — the standard warm-up stream. *)
let permutation ~seed n =
  let a = Array.init n Fun.id in
  let rng = Random.State.make [| seed |] in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  a

(** 16-byte string key for integer [i], zero-padded decimal with a
    fixed prefix (the paper's variable-size keys are 16-byte strings). *)
let string_key_16 i = Printf.sprintf "k%015d" i

(** String key of arbitrary positive length. *)
let string_key ~len i =
  if len < 8 then invalid_arg "Keygen.string_key: len >= 8";
  let base = Printf.sprintf "%0*d" (len - 1) i in
  "k" ^ String.sub base (String.length base - (len - 1)) (len - 1)
