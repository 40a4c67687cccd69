"""Identity generation (Section 4.1.1).

Usernames/email local-parts take the form adjective + noun + four-digit
number (``ArguableGem8317``): plausible-looking yet very unlikely to be
taken.  Each factory guarantees that, within a run, no two identities
share an email local-part or phone number.
"""

from __future__ import annotations

from repro.data.identity_corpus import (
    AREA_CODES,
    CITIES,
    EMPLOYERS,
    FEMALE_FIRST_NAMES,
    LAST_NAMES,
    MALE_FIRST_NAMES,
    STREET_NAMES,
    STREET_SUFFIXES,
)
from repro.data.words import ADJECTIVES, NOUNS
from repro.identity.passwords import (
    PasswordClass,
    generate_easy_password,
    generate_hard_password,
)
from repro.identity.records import Identity, PostalAddress
from repro.util.rngtree import RngTree
from repro.util.timeutil import instant_from_date


class IdentityFactory:
    """Deterministically generates unique identities."""

    def __init__(self, rng_tree: RngTree, email_domain: str = "bigmail.example"):
        self._rng = rng_tree.child("identity-factory").rng()
        self._email_domain = email_domain
        self._next_id = 1
        self._used_locals: set[str] = set()
        self._used_phones: set[str] = set()

    @property
    def email_domain(self) -> str:
        """The provider domain identities are homed at."""
        return self._email_domain

    def _unique_email_local(self) -> str:
        while True:
            adjective = self._rng.choice(ADJECTIVES)
            noun = self._rng.choice(NOUNS)
            number = self._rng.randrange(1000, 10000)
            local = f"{adjective}{noun}{number}"
            if local.lower() not in self._used_locals:
                self._used_locals.add(local.lower())
                return local

    def _unique_phone(self) -> str:
        while True:
            area = self._rng.choice(AREA_CODES)
            exchange = self._rng.randrange(200, 1000)
            line = self._rng.randrange(0, 10000)
            phone = f"{area}-{exchange:03d}-{line:04d}"
            if phone not in self._used_phones:
                self._used_phones.add(phone)
                return phone

    def _address(self) -> PostalAddress:
        number = self._rng.randrange(10, 9900)
        street = (
            f"{number} {self._rng.choice(STREET_NAMES)} "
            f"{self._rng.choice(STREET_SUFFIXES)}"
        )
        city, state, zip_prefix = self._rng.choice(CITIES)
        zip_code = f"{zip_prefix}{self._rng.randrange(100):02d}"
        return PostalAddress(street=street, city=city, state=state, zip_code=zip_code)

    def create(self, password_class: PasswordClass) -> Identity:
        """Generate one new identity of the given password class."""
        rng = self._rng
        if rng.random() < 0.5:
            first_name, gender = rng.choice(MALE_FIRST_NAMES), "M"
        else:
            first_name, gender = rng.choice(FEMALE_FIRST_NAMES), "F"
        if password_class is PasswordClass.HARD:
            password = generate_hard_password(rng)
        else:
            password = generate_easy_password(rng)
        dob = instant_from_date(
            rng.randrange(1955, 1998), rng.randrange(1, 13), rng.randrange(1, 29)
        )
        identity = Identity(
            identity_id=self._next_id,
            first_name=first_name,
            last_name=rng.choice(LAST_NAMES),
            gender=gender,
            date_of_birth=dob,
            address=self._address(),
            phone=self._unique_phone(),
            employer=rng.choice(EMPLOYERS),
            email_local=self._unique_email_local(),
            email_domain=self._email_domain,
            password=password,
            password_class=password_class,
        )
        self._next_id += 1
        return identity
