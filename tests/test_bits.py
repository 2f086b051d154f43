import bits


def test_bits_keys_repeat_in_one_process():
    """Two of the script's cheap keys, computed twice from fresh draws, hash
    alike: the script runs, and its keys depend on nothing a run leaves
    behind."""
    runs = []
    for _ in range(2):
        eval_input, batches = bits.seeded_inputs()
        runs.append((bits.eval_logits(eval_input), bits.grads(bits.one_step(*batches["b37"]))))
    assert runs[0] == runs[1]
    assert all(len(key) == 64 for key in runs[0])
