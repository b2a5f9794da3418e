"""Writes the SFT dataset format that ``policy.load_sft_dataset`` reads:
one JSON object per line."""

import json


def save_sft_dataset(samples, path) -> None:
    with open(path, "w") as fh:
        for s in samples:
            fh.write(json.dumps({
                "features": list(s.obs.features),
                "step": s.obs.step_index,
                "last_outcome": s.obs.last_outcome,
                "demo_action": s.demo_action_index,
            }) + "\n")
