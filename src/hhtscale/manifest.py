"""Run manifests: key=value sidecars that make every output reproducible.

Each CSV an invocation writes gets a ``<file>.manifest`` sidecar recording
the subcommand, every parameter's value (the flag given, else its default),
the random generator, seed and thread count (empty for subcommands that
draw no random numbers), input digests, software version, and wall time.
Re-running the reconstructed command line reproduces the CSV byte-for-byte;
only the duration line differs between such runs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__

__all__ = ["RunManifest", "file_digest"]

_HEADER = "# hhtscale run manifest v1"


def file_digest(path) -> str:
    """Hex SHA-256 of a file's bytes."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class RunManifest:
    """Everything needed to rerun one subcommand invocation."""

    subcommand: str
    params: dict[str, str] = field(default_factory=dict)
    inputs: dict[str, str] = field(default_factory=dict)  # name -> sha256
    seed: int | None = None
    threads: int | None = 1
    rng: str | None = None  # the generator's name, for runs that draw random numbers
    version: str = __version__
    duration_s: float = 0.0

    def to_text(self) -> str:
        lines = [
            _HEADER,
            f"subcommand={self.subcommand}",
            f"version={self.version}",
            f"rng={'' if self.rng is None else self.rng}",
            f"seed={'' if self.seed is None else self.seed}",
            f"threads={'' if self.threads is None else self.threads}",
            f"duration_s={self.duration_s!r}",
        ]
        for key in sorted(self.params):
            value = self.params[key]
            if "\n" in value:
                raise ValueError(f"manifest value for {key!r} contains a newline")
            lines.append(f"param.{key}={value}")
        for name in sorted(self.inputs):
            lines.append(f"input.{name}.sha256={self.inputs[name]}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "RunManifest":
        fields: dict[str, str] = {}
        params: dict[str, str] = {}
        inputs: dict[str, str] = {}
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"malformed manifest line: {raw!r}")
            if key.startswith("param."):
                params[key[len("param."):]] = value
            elif key.startswith("input.") and key.endswith(".sha256"):
                inputs[key[len("input."):-len(".sha256")]] = value
            else:
                fields[key] = value
        return cls(
            subcommand=fields.get("subcommand", ""),
            params=params,
            inputs=inputs,
            seed=int(fields["seed"]) if fields.get("seed") else None,
            threads=int(fields["threads"]) if fields.get("threads") else None,
            rng=fields.get("rng") or None,
            version=fields.get("version", ""),
            duration_s=float(fields.get("duration_s", "0.0")),
        )

    def write(self, path) -> None:
        Path(path).write_text(self.to_text())

    @classmethod
    def load(cls, path) -> "RunManifest":
        return cls.from_text(Path(path).read_text())

    def to_argv(self) -> list[str]:
        """Command-line fragment (after the program name) that reruns this."""
        argv = [self.subcommand]
        if "input" in self.params:
            argv.append(self.params["input"])
        for key in sorted(self.params):
            if key == "input":
                continue
            value = self.params[key]
            flag = "--" + key.replace("_", "-")
            if value.startswith("-"):
                # a separate token would parse as an option
                argv.append(f"{flag}={value}")
            else:
                argv.extend([flag, value])
        for flag, value in (("--seed", self.seed), ("--threads", self.threads)):
            if value is not None:
                argv.extend([flag, str(value)])
        return argv
