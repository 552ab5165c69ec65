"""Setuptools entry point; the project metadata lives in ``pyproject.toml``.

setuptools releases before 70.1 build wheels through the separate
``wheel`` package.  Where that package is missing (offline hosts that only
carry setuptools), ``pip install --no-build-isolation .`` would fail while
preparing metadata, so this file registers a small ``bdist_wheel`` that
packs the pure-Python ``src/`` tree itself.  Where ``wheel`` is installed,
or setuptools ships its own ``bdist_wheel``, the standard command runs.
"""

import base64
import hashlib
import os
import shutil
import zipfile

from setuptools import Command, setup


class PurePythonWheel(Command):
    """``bdist_wheel`` for a pure-Python package, standard library only."""

    description = "build a py3-none-any wheel"
    user_options = [("dist-dir=", "d", "directory for the built wheel")]

    def initialize_options(self):
        self.dist_dir = None

    def finalize_options(self):
        self.dist_dir = self.dist_dir or "dist"

    @staticmethod
    def egg2dist(egg_info_dir, dist_info_dir):
        """Turn an ``.egg-info`` directory into a ``.dist-info`` directory."""
        os.makedirs(dist_info_dir, exist_ok=True)
        with open(os.path.join(egg_info_dir, "PKG-INFO")) as handle:
            headers, _, body = handle.read().partition("\n\n")
        headers = headers.rstrip("\n")
        requires_path = os.path.join(egg_info_dir, "requires.txt")
        if os.path.exists(requires_path):
            with open(requires_path) as handle:
                for line in handle.read().split("\n[")[0].splitlines():
                    if line.strip():
                        headers += f"\nRequires-Dist: {line.strip()}"
        with open(os.path.join(dist_info_dir, "METADATA"), "w") as handle:
            handle.write(f"{headers}\n\n{body}")
        shutil.copy(os.path.join(egg_info_dir, "top_level.txt"), dist_info_dir)
        shutil.rmtree(egg_info_dir)

    def run(self):
        build_py = self.get_finalized_command("build_py")
        build_py.run()
        egg_info = self.get_finalized_command("egg_info")
        egg_info.run()
        name = self.distribution.get_name().replace("-", "_")
        version = self.distribution.get_version()
        dist_info = f"{name}-{version}.dist-info"
        self.egg2dist(egg_info.egg_info, os.path.join(build_py.build_lib, dist_info))
        with open(os.path.join(build_py.build_lib, dist_info, "WHEEL"), "w") as handle:
            handle.write(
                "Wheel-Version: 1.0\nGenerator: setup.py\n"
                "Root-Is-Purelib: true\nTag: py3-none-any\n"
            )

        os.makedirs(self.dist_dir, exist_ok=True)
        wheel_path = os.path.join(self.dist_dir, f"{name}-{version}-py3-none-any.whl")
        records = []
        with zipfile.ZipFile(wheel_path, "w", zipfile.ZIP_DEFLATED) as wheel:
            for root, _, files in sorted(os.walk(build_py.build_lib)):
                for filename in sorted(files):
                    path = os.path.join(root, filename)
                    arcname = os.path.relpath(path, build_py.build_lib).replace(os.sep, "/")
                    with open(path, "rb") as handle:
                        data = handle.read()
                    digest = base64.urlsafe_b64encode(hashlib.sha256(data).digest())
                    records.append(f"{arcname},sha256={digest.rstrip(b'=').decode()},{len(data)}")
                    wheel.writestr(arcname, data)
            records.append(f"{dist_info}/RECORD,,")
            wheel.writestr(f"{dist_info}/RECORD", "\n".join(records) + "\n")


try:
    from setuptools.command.bdist_wheel import bdist_wheel  # noqa: F401  (setuptools >= 70.1)

    cmdclass = {}
except ImportError:
    try:
        import wheel  # noqa: F401

        cmdclass = {}
    except ImportError:
        cmdclass = {"bdist_wheel": PurePythonWheel}

setup(cmdclass=cmdclass)
